# Rejected-config smoke: cq_serve must refuse a bad integer flag, a bad
# manifest override value and an unknown manifest key before it serves
# anything — nonzero exit, with the offending key named on stderr. Each
# case also passes --smoke, so a daemon that wrongly accepted the config
# would run its self-test and exit 0 (failing this test) instead of
# listening forever.
#
# Driven as: cmake -DTOOL=<cq_serve> -DARTIFACT=<x.cqar> -DWORKDIR=<dir> -P <this>

foreach(var TOOL ARTIFACT WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "serve_reject_test: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORKDIR}")
file(WRITE "${WORKDIR}/reject_ok.txt" "smoke ${ARTIFACT}\n")
file(WRITE "${WORKDIR}/reject_workers.txt" "smoke ${ARTIFACT} workers=two\n")
file(WRITE "${WORKDIR}/reject_intra.txt" "smoke ${ARTIFACT} intra_threads=2\n")

function(expect_rejected name key)
  execute_process(
    COMMAND "${TOOL}" ${ARGN} --port=0 --smoke
    RESULT_VARIABLE tool_result
    OUTPUT_VARIABLE tool_stdout
    ERROR_VARIABLE tool_stderr
    TIMEOUT 60)
  if(tool_result EQUAL 0)
    message(FATAL_ERROR
      "cq_serve accepted a bad config (${name}: ${ARGN})\nstdout: ${tool_stdout}")
  endif()
  if(NOT tool_stderr MATCHES "${key}")
    message(FATAL_ERROR
      "cq_serve rejected ${name} (exit ${tool_result}) without naming '${key}'\n"
      "stderr: ${tool_stderr}")
  endif()
  string(STRIP "${tool_stderr}" stderr_line)
  message(STATUS "${name}: exit ${tool_result}: ${stderr_line}")
endfunction()

expect_rejected("negative flag" queue_capacity
  --manifest=${WORKDIR}/reject_ok.txt --queue_capacity=-1)
expect_rejected("non-integer override" workers --manifest=${WORKDIR}/reject_workers.txt)
expect_rejected("removed override key" intra_threads
  --manifest=${WORKDIR}/reject_intra.txt)
