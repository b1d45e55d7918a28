# Self-tests of ppms_e2e, run by ctest (label e2e-smoke):
#   cmake -DEXE=<ppms_e2e> -DSCRATCH=<dir> -DMODE=smoke|tamper|digest \
#         -P selftest.cmake

function(run_e2e)
  execute_process(COMMAND ${EXE} ${ARGN} --scratch ${SCRATCH}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  set(rc "${rc}" PARENT_SCOPE)
  set(out "${out}" PARENT_SCOPE)
  set(err "${err}" PARENT_SCOPE)
endfunction()

function(corpus_digest seed threads result)
  run_e2e(--workload deposit_strict_128 --seed ${seed} --smoke
          --mint-threads ${threads} --digest-only)
  if(NOT rc EQUAL 0 OR NOT out MATCHES "corpus_sha256 ([0-9a-f]+)")
    message(FATAL_ERROR "digest run failed (${rc}):\n${out}\n${err}")
  endif()
  set(${result} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

if(MODE STREQUAL "smoke")
  # Every workload, one round each on the 128-bit field: exit 0, every
  # output check passes and no request fails.
  run_e2e(--workload all --seed 11 --smoke)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "smoke run exited ${rc}:\n${out}\n${err}")
  endif()
  string(REGEX MATCHALL "\"correct\": true, \"attempted\": [1-9][0-9]*, \"failed\": 0,"
         results "${out}")
  string(REGEX MATCHALL "fail_ratio=0\\.0000 " ratios "${out}")
  list(LENGTH results n_results)
  list(LENGTH ratios n_ratios)
  if(NOT n_results EQUAL 4 OR NOT n_ratios EQUAL 4)
    message(FATAL_ERROR "expected 4 clean results, got ${n_results}/${n_ratios}:\n${out}")
  endif()
elseif(MODE STREQUAL "tamper")
  # One flipped proof byte in a validly framed envelope: the run must stop
  # with exit 1 and name the check that caught it.
  run_e2e(--workload deposit_sat_512 --seed 11 --smoke --tamper)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "check failed: accepted == corpus size"
     OR NOT out MATCHES "\"correct\": false")
    message(FATAL_ERROR "tampered corpus not caught (${rc}):\n${out}\n${err}")
  endif()
elseif(MODE STREQUAL "digest")
  # The corpus does not depend on the mint thread count, and does on the seed.
  corpus_digest(11 1 one)
  corpus_digest(11 4 four)
  corpus_digest(12 4 other)
  if(NOT one STREQUAL four)
    message(FATAL_ERROR "1 vs 4 mint threads: ${one} != ${four}")
  endif()
  if(one STREQUAL other)
    message(FATAL_ERROR "seeds 11 and 12 gave the same corpus ${one}")
  endif()
else()
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()
