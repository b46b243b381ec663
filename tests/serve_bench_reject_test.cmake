# Rejected-flag smoke: cq_serve_bench must refuse an out-of-range
# --connect port and a non-integer integer flag in either mode with
# exit status 2 and the offending flag named on stderr, before it dials
# or serves anything. The lenient parser it replaced dialed port 4464
# for 70000 (exit 1 on refusal) and ran with 0 workers for "two".
#
# Driven as: cmake -DTOOL=<cq_serve_bench> -DARTIFACT=<x.cqar> -P <this>

foreach(var TOOL ARTIFACT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "serve_bench_reject_test: -D${var}=... is required")
  endif()
endforeach()

function(expect_usage_error name key)
  execute_process(
    COMMAND "${TOOL}" ${ARGN}
    RESULT_VARIABLE tool_result
    OUTPUT_VARIABLE tool_stdout
    ERROR_VARIABLE tool_stderr
    TIMEOUT 60)
  if(NOT tool_result EQUAL 2)
    message(FATAL_ERROR
      "cq_serve_bench ${name} (${ARGN}): exit ${tool_result}, expected 2\n"
      "stdout: ${tool_stdout}\nstderr: ${tool_stderr}")
  endif()
  if(NOT tool_stderr MATCHES "${key}")
    message(FATAL_ERROR
      "cq_serve_bench rejected ${name} without naming '${key}'\n"
      "stderr: ${tool_stderr}")
  endif()
  string(STRIP "${tool_stderr}" stderr_line)
  message(STATUS "${name}: exit 2: ${stderr_line}")
endfunction()

expect_usage_error("port out of range" "connect port"
  --connect=localhost:70000 --model=mlp --requests=1 --warmup=0)
expect_usage_error("non-numeric port" "connect port"
  --connect=localhost:http --model=mlp --requests=1 --warmup=0)
expect_usage_error("remote trailing junk" warmup
  --connect=localhost:1 --model=mlp --warmup=8x)
expect_usage_error("local non-integer flag" workers
  "${ARTIFACT}" --workers=two --requests=1 --warmup=0)
expect_usage_error("local negative flag" queue
  "${ARTIFACT}" --queue=-1 --requests=1 --warmup=0)
