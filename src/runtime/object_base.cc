#include "src/runtime/object_base.h"

namespace objectbase::rt {

std::atomic<uint64_t>& ObjectFindCalls() {
  static std::atomic<uint64_t> calls{0};
  return calls;
}

uint32_t ObjectBase::CreateObject(std::string name,
                                  std::shared_ptr<const adt::AdtSpec> spec) {
  uint32_t id = static_cast<uint32_t>(objects_.size());
  by_name_[name] = id;
  objects_.push_back(std::make_unique<Object>(id, std::move(name),
                                              std::move(spec)));
  objects_.back()->set_shard(id % num_shards_);
  return id;
}

Object* ObjectBase::Find(const std::string& name) {
  ObjectFindCalls().fetch_add(1, std::memory_order_relaxed);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return nullptr;
  return objects_[it->second].get();
}

}  // namespace objectbase::rt
