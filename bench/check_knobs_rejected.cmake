# Knob-validation check for the paper bench binaries, invoked as a ctest
# via `cmake -P`:
#
#   cmake -DBENCH=<bench binary> -P check_knobs_rejected.cmake
#
# Every bad value of every knob, given as a flag or as an environment
# variable, must make the binary exit 2 with the knob named on stderr and
# nothing on stdout: the header is printed just before the first cell, so
# an empty stdout means no cell ran. No valid value is ever passed, so a
# broken check fails fast instead of starting a sweep.

if(NOT DEFINED BENCH)
  message(FATAL_ERROR "usage: cmake -DBENCH=<binary> -P check_knobs_rejected.cmake")
endif()

# A clean environment, so that a knob set by the caller cannot mask the
# one under test.
set(CLEAN_ENV ${CMAKE_COMMAND} -E env --unset=BPW_QUICK --unset=BPW_BENCH_MS
              --unset=BPW_MAX_THREADS)

function(expect_rejected knob)
  execute_process(
    COMMAND ${CLEAN_ENV} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "`${ARGN}`: want exit 2, got '${rc}'\n${out}${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "`${ARGN}`: printed before rejecting:\n${out}")
  endif()
  string(FIND "${err}" "${knob}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "`${ARGN}`: stderr does not name ${knob}:\n${err}")
  endif()
endfunction()

# 4294967297 is 2^32 + 1: it would wrap to 1 in a 32-bit thread count.
foreach(value abc 0 4294967297)
  expect_rejected(--max-threads ${BENCH} --max-threads ${value})
  expect_rejected(BPW_MAX_THREADS BPW_MAX_THREADS=${value} ${BENCH})
endforeach()
# strtoull would have read "abc" as 0 and "10x" as 10.
foreach(value abc 0 10x)
  expect_rejected(--ms ${BENCH} --ms ${value})
  expect_rejected(BPW_BENCH_MS BPW_BENCH_MS=${value} ${BENCH})
endforeach()
# BPW_QUICK is a switch: 0 and 1 are its only values.
foreach(value abc 2 4294967297)
  expect_rejected(BPW_QUICK BPW_QUICK=${value} ${BENCH})
endforeach()
