# End-to-end daemon smoke: writes a two-entry manifest over the
# exported smoke artifact (same model under two names, one with a
# tight admission threshold), launches cq_serve on an ephemeral port
# with --smoke — which round-trips every model over localhost, byte
# compares the remote logits against a fresh in-process EngineSession
# on the scalar reference backend,
# hot-swaps each model to the identical artifact mid-traffic, then
# drains through the SIGTERM path — and requires a zero exit.
#
# Driven as: cmake -DTOOL=<cq_serve> -DARTIFACT=<x.cqar> -DMANIFEST=<tmp> -P <this>

foreach(var TOOL ARTIFACT MANIFEST)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "serve_smoke_test: -D${var}=... is required")
  endif()
endforeach()

file(WRITE "${MANIFEST}" "# cq_serve smoke manifest
smoke      ${ARTIFACT} workers=2 max_batch=8
smoke_tight ${ARTIFACT} workers=1 queue_capacity=64 admit_depth=32
")

execute_process(
  COMMAND "${TOOL}" --manifest=${MANIFEST} --port=0 --smoke
  RESULT_VARIABLE tool_result
  OUTPUT_VARIABLE tool_stdout
  ERROR_VARIABLE tool_stderr
  TIMEOUT 120)

if(NOT tool_result EQUAL 0)
  message(FATAL_ERROR
    "cq_serve --smoke failed (exit ${tool_result})\nstdout: ${tool_stdout}\nstderr: ${tool_stderr}")
endif()
if(NOT tool_stdout MATCHES "cq_serve: draining")
  message(FATAL_ERROR
    "cq_serve --smoke exited 0 without the SIGTERM drain path (stdout: ${tool_stdout})")
endif()
message(STATUS "cq_serve smoke passed:\n${tool_stdout}")
