# Runs the CLI and fails unless it exits with exactly the expected code.
#   cmake -DCLI=<cbrain_cli> -DARGS=<arg|arg|...> -DEXPECT=<code> \
#         -P expect_exit.cmake
# Arguments are '|'-separated so they survive as one -D value.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${CLI} ${args} RESULT_VARIABLE rc)
if(NOT rc STREQUAL EXPECT)
  message(FATAL_ERROR "cbrain_cli ${ARGS}: expected exit ${EXPECT}, got ${rc}")
endif()
