# Configures and builds the engine subset (DPMA_EXP_CORE_ONLY) under the
# sanitizers in SANITIZE, compiling on every core, then runs the smoke binary.
# `ctest --build-and-test` would compile on one core: it passes no
# parallelism to the build and ignores CMAKE_BUILD_PARALLEL_LEVEL/MAKEFLAGS.
#
#   cmake -DSOURCE_DIR=<repo> -DBINARY_DIR=<tree> -DGENERATOR=<gen>
#         -DSANITIZE=<list> -DBUILD_TYPE=<type> -DCXX_COMPILER=<c++>
#         -P nested_sanitize.cmake

function(run_step)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    list(JOIN ARGN " " command)
    message(FATAL_ERROR "`${command}` failed: ${status}")
  endif()
endfunction()

run_step(${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BINARY_DIR} -G ${GENERATOR}
         -DDPMA_SANITIZE=${SANITIZE} -DDPMA_EXP_CORE_ONLY=ON
         -DCMAKE_BUILD_TYPE=${BUILD_TYPE} -DCMAKE_CXX_COMPILER=${CXX_COMPILER})
cmake_host_system_information(RESULT cores QUERY NUMBER_OF_LOGICAL_CORES)
run_step(${CMAKE_COMMAND} --build ${BINARY_DIR} --parallel ${cores})
run_step(${BINARY_DIR}/exp_tsan_smoke)
