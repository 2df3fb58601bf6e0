# Runs one example and requires exit status 0 and a stdout equal, byte for
# byte, to a golden file.
#
#   cmake -DPROGRAM=<path> "-DARGS=--flag;value" -DGOLDEN=<file>
#         -P expect_output.cmake   (one line)
execute_process(COMMAND ${PROGRAM} ${ARGS}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "expected exit status 0, got '${status}' and "
                      "stderr:\n${err}")
endif()
file(READ ${GOLDEN} expected)
if(NOT out STREQUAL expected)
  message(FATAL_ERROR "stdout differs from ${GOLDEN}; got:\n${out}")
endif()
