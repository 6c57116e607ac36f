# Runs one CLI invocation and asserts its exact exit status (and optionally
# a regex over combined stdout+stderr).  ctest's WILL_FAIL cannot express
# "must exit 1, not crash": a SIGABRT also 'fails', so the input-validation
# regression this guards (std::terminate on garbage flags) would pass.
# Driven by pimecc_add_cli_test() in PimeccHelpers.cmake:
#
#   cmake -DCLI_COMMAND=<binary> -DCLI_ARGS=<;-list> -DEXPECT_EXIT=<code>
#         [-DEXPECT_MATCH=<regex>] [-DEXPECT_STDOUT_FILE=<file>]
#         -P RunCliTest.cmake
#
# EXPECT_STDOUT_FILE compares stdout alone, byte for byte, with a golden
# file.
if(NOT DEFINED CLI_COMMAND OR NOT DEFINED EXPECT_EXIT)
  message(FATAL_ERROR "RunCliTest: CLI_COMMAND and EXPECT_EXIT are required")
endif()

execute_process(
  COMMAND "${CLI_COMMAND}" ${CLI_ARGS}
  OUTPUT_VARIABLE cli_stdout
  ERROR_VARIABLE cli_stderr
  RESULT_VARIABLE cli_code)

string(CONCAT cli_output "${cli_stdout}" "${cli_stderr}")

# On a signal death RESULT_VARIABLE is a message ("Subprocess aborted"),
# never a number, so a crash can never satisfy a numeric expectation.
if(NOT cli_code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR
    "expected exit ${EXPECT_EXIT}, got '${cli_code}'\n"
    "command: ${CLI_COMMAND} ${CLI_ARGS}\n"
    "output:\n${cli_output}")
endif()

if(DEFINED EXPECT_MATCH AND NOT EXPECT_MATCH STREQUAL "")
  string(REGEX MATCH "${EXPECT_MATCH}" cli_match "${cli_output}")
  if(cli_match STREQUAL "")
    message(FATAL_ERROR
      "output does not match '${EXPECT_MATCH}'\n"
      "command: ${CLI_COMMAND} ${CLI_ARGS}\n"
      "output:\n${cli_output}")
  endif()
endif()

if(DEFINED EXPECT_STDOUT_FILE AND NOT EXPECT_STDOUT_FILE STREQUAL "")
  file(READ "${EXPECT_STDOUT_FILE}" expected_stdout)
  if(NOT cli_stdout STREQUAL expected_stdout)
    message(FATAL_ERROR
      "stdout differs from ${EXPECT_STDOUT_FILE}\n"
      "command: ${CLI_COMMAND} ${CLI_ARGS}\n"
      "expected:\n${expected_stdout}\n"
      "got:\n${cli_stdout}")
  endif()
endif()
