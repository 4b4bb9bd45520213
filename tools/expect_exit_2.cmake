# Runs CMD (a ;-list) and passes only if it exits with status 2 and its
# stderr matches EXPECT. Exit 2 is the CLI's usage error; an assert abort
# (134) or a run that ignores the bad input (0) fails.
#   cmake -DCMD="bin;arg;..." -DEXPECT=regex -P expect_exit_2.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "exit status ${rc}, expected 2; stderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}': ${err}")
endif()
