# Driver for the `check` target: configure + build Release and Debug trees,
# run ctest in both, then a short perfbench bank-hot run as a smoke test: it
# builds the library in Release, drives CERT under contention, and checks
# the recorded histories with the legality, SG and Theorem 5 oracles (exit
# status non-zero on any failed check).
#
# Usage (equivalent to `cmake --build build --target check`):
#   cmake -DSOURCE_DIR=. -DBINARY_ROOT=build/check -P cmake/check.cmake
if(NOT DEFINED SOURCE_DIR OR NOT DEFINED BINARY_ROOT)
  message(FATAL_ERROR "check.cmake needs -DSOURCE_DIR=... -DBINARY_ROOT=...")
endif()

include(ProcessorCount)
ProcessorCount(NPROC)
if(NPROC EQUAL 0)
  set(NPROC 2)
endif()

foreach(config Release Debug)
  set(tree ${BINARY_ROOT}/${config})
  message(STATUS "==== ${config}: configure ====")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -B ${tree} -S ${SOURCE_DIR}
            -DCMAKE_BUILD_TYPE=${config}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${config} configure failed")
  endif()
  message(STATUS "==== ${config}: build ====")
  execute_process(
    COMMAND ${CMAKE_COMMAND} --build ${tree} -j ${NPROC}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${config} build failed")
  endif()
  message(STATUS "==== ${config}: ctest ====")
  execute_process(
    COMMAND ctest --output-on-failure -j ${NPROC}
    WORKING_DIRECTORY ${tree}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${config} tests failed")
  endif()
endforeach()

message(STATUS "==== fsm label: ctest -L fsm (Release) ====")
execute_process(
  COMMAND ctest --output-on-failure -L fsm -j ${NPROC}
  WORKING_DIRECTORY ${BINARY_ROOT}/Release
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fsm-labelled tests failed")
endif()

message(STATUS "==== perfbench smoke: bank-hot (Release) ====")
find_program(PYTHON3 python3)
if(NOT PYTHON3)
  message(FATAL_ERROR "perfbench smoke needs python3")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env CARGO_TARGET_DIR=${BINARY_ROOT}/perfbench
          ${PYTHON3} perfbench/run.py --workload bank-hot --seed 1 --seconds 3
  WORKING_DIRECTORY ${SOURCE_DIR}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "perfbench bank-hot smoke run failed")
endif()

message(STATUS "check: all green")
