# Counter gate for one bpw_bench suite, invoked as a ctest via `cmake -P`:
#
#   cmake -DBPW_BENCH=<bpw_bench> -DBENCH_COMPARE=<bench_compare>
#         -DSUITE=<name> -DBASELINE=<committed json> -DOUT=<candidate json>
#         -P check_baseline.cmake
#
# Runs the suite once and fails unless bench_compare finds every counter
# and workload fingerprint equal to the committed baseline.

foreach(var BPW_BENCH BENCH_COMPARE SUITE BASELINE OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_baseline.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(
  COMMAND ${BPW_BENCH} --suite ${SUITE} --quiet --out ${OUT}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bpw_bench --suite ${SUITE} exited ${rc}\n${out}${err}")
endif()

execute_process(
  COMMAND ${BENCH_COMPARE} ${BASELINE} ${OUT}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "suite ${SUITE} drifted from ${BASELINE}\n${err}")
endif()
