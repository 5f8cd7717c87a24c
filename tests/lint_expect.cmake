# Runs `t3_lint --json FILE` and passes only when the tool exits 2 and the
# JSON report names CHECK. A crash or an abort fails the test, where a
# WILL_FAIL test would have passed on any non-zero exit.
#
#   cmake -DLINT=<t3_lint> -DFILE=<artifact> -DCHECK=<check id> \
#         -P lint_expect.cmake
execute_process(COMMAND ${LINT} --json ${FILE}
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE output
  ERROR_VARIABLE errors)
if(NOT exit_code STREQUAL "2")
  message(FATAL_ERROR
    "t3_lint exited with '${exit_code}', want 2\n${output}${errors}")
endif()
string(FIND "${output}" "\"check\": \"${CHECK}\"" found)
if(found EQUAL -1)
  message(FATAL_ERROR "t3_lint did not report ${CHECK}\n${output}")
endif()
