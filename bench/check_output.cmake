# Runs one bench and byte-compares its stdout with a pinned expected file.
#
#   cmake -DBENCH=<binary> -DEXPECTED=<file> -DACTUAL=<file> \
#         -P bench/check_output.cmake
#
# Fails when the bench exits non-zero or its stdout differs; stderr is not
# compared.  The actual output stays in ACTUAL for inspection.
foreach(var BENCH EXPECTED ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_output.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND ${BENCH}
                OUTPUT_FILE ${ACTUAL}
                ERROR_VARIABLE bench_stderr
                RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${bench_rc}\n${bench_stderr}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${EXPECTED} ${ACTUAL}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND ${DIFF} -u ${EXPECTED} ${ACTUAL})
  endif()
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${EXPECTED}")
endif()
