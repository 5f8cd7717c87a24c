# Runs a command and passes only when it exits with exactly EXIT and its
# output (stdout + stderr) contains EXPECT. A crash, an abort or any other
# exit code fails the test, where a WILL_FAIL test would have passed on any
# non-zero exit.
#
#   cmake -DEXIT=<code> -DEXPECT=<substring> -P expect_exit.cmake \
#         -- <command> [<arg>...]
set(command)
set(in_command FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_command)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_command TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "expect_exit.cmake: no command after --")
endif()

execute_process(COMMAND ${command}
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE output
  ERROR_VARIABLE errors)
if(NOT exit_code STREQUAL "${EXIT}")
  message(FATAL_ERROR
    "exited with '${exit_code}', want ${EXIT}\n${output}${errors}")
endif()
string(FIND "${output}${errors}" "${EXPECT}" found)
if(found EQUAL -1)
  message(FATAL_ERROR "output does not contain '${EXPECT}'\n${output}${errors}")
endif()
