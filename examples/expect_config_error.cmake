# Runs one example with a flag value the library rejects and requires the
# configuration-error contract of common/cli: exit status 2 and a stderr
# that starts with "<argv[0]>: ".
#
#   cmake -DPROGRAM=<path> "-DARGS=--flag;value" -P expect_config_error.cmake
execute_process(COMMAND ${PROGRAM} ${ARGS}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
string(FIND "${err}" "${PROGRAM}: " prefix_at)
if(NOT status STREQUAL "2" OR NOT prefix_at EQUAL 0)
  message(FATAL_ERROR "expected exit status 2 and a '${PROGRAM}: ' prefix, "
                      "got status '${status}' and stderr:\n${err}")
endif()
