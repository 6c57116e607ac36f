# Helper functions shared by every pimecc CMakeLists.  New tests and benches
# register with a single line:
#
#   pimecc_add_test(test_foo LABELS unit TIMEOUT 60)
#   pimecc_add_bench(bench_foo)
#
include_guard(GLOBAL)

# Apply the project-wide warning flags and include paths to a target.
function(pimecc_compile_options target)
  target_compile_options(${target} PRIVATE ${PIMECC_WARNING_FLAGS})
endfunction()

# pimecc_add_test(<name> [SOURCES <files...>] [LABELS <labels...>] [TIMEOUT <sec>])
#
# Builds tests/<name>.cpp (unless SOURCES overrides), links it against
# pimecc_oracle (the bit-serial references, on top of pimecc) and GoogleTest,
# and registers every TEST() in it with ctest via gtest_discover_tests.
# LABELS default to "unit"; TIMEOUT defaults to 120 seconds and is applied
# per discovered test.
function(pimecc_add_test name)
  cmake_parse_arguments(PAT "" "TIMEOUT" "SOURCES;LABELS" ${ARGN})
  if(NOT PAT_SOURCES)
    set(PAT_SOURCES ${name}.cpp)
  endif()
  if(NOT PAT_LABELS)
    set(PAT_LABELS unit)
  endif()
  if(NOT PAT_TIMEOUT)
    set(PAT_TIMEOUT 120)
  endif()

  add_executable(${name} ${PAT_SOURCES})
  target_link_libraries(${name} PRIVATE pimecc_oracle GTest::gtest GTest::gtest_main)
  pimecc_compile_options(${name})

  gtest_discover_tests(${name}
    TEST_LIST ${name}_TESTS
    DISCOVERY_TIMEOUT 60)

  # gtest_discover_tests flattens list-valued PROPERTIES (its serializer
  # re-splits every value), so multi-label sets cannot be passed through it.
  # Instead, append our own ctest include file that runs after discovery and
  # stamps LABELS/TIMEOUT onto the discovered tests via TEST_LIST.
  set(fixup "${CMAKE_CURRENT_BINARY_DIR}/${name}_props.cmake")
  file(WRITE "${fixup}"
    "if(${name}_TESTS)\n"
    "  set_tests_properties(\${${name}_TESTS} PROPERTIES\n"
    "    LABELS [==[${PAT_LABELS}]==] TIMEOUT ${PAT_TIMEOUT})\n"
    "endif()\n")
  set_property(DIRECTORY APPEND PROPERTY TEST_INCLUDE_FILES "${fixup}")
endfunction()

# pimecc_add_bench(<name> [SOURCES <files...>])
#
# Builds bench/<name>.cpp as a standalone executable linked against
# pimecc_oracle (which brings pimecc) and the bench harness
# (bench/harness.hpp: options, rate loop, gates, JSON).
# Full runs are long by design, so benches are not registered with ctest
# here; bench/CMakeLists.txt registers the --smoke runs under the "bench"
# label.  Use the aggregate `benches` target to build them all.
function(pimecc_add_bench name)
  cmake_parse_arguments(PAB "" "" "SOURCES" ${ARGN})
  if(NOT PAB_SOURCES)
    set(PAB_SOURCES ${name}.cpp)
  endif()
  add_executable(${name} ${PAB_SOURCES})
  target_link_libraries(${name} PRIVATE pimecc_oracle pimecc_bench_harness)
  pimecc_compile_options(${name})
  if(NOT TARGET benches)
    add_custom_target(benches)
  endif()
  add_dependencies(benches ${name})
endfunction()

# pimecc_add_cli_test(<name> EXIT <code> [MATCH <regex>] [STDOUT_FILE <file>]
#                     COMMAND <target> [args...])
#
# Registers a ctest entry (labels "unit;cli") that runs the target binary
# with the given arguments and asserts the exact exit status -- a crash
# (signal death) never matches a numeric code, unlike WILL_FAIL -- plus an
# optional regex over combined stdout+stderr and an optional byte-exact
# golden file for stdout.  See cmake/RunCliTest.cmake.
function(pimecc_add_cli_test name)
  cmake_parse_arguments(PCT "" "EXIT;MATCH;STDOUT_FILE" "COMMAND" ${ARGN})
  if(NOT DEFINED PCT_EXIT OR NOT PCT_COMMAND)
    message(FATAL_ERROR "pimecc_add_cli_test: EXIT and COMMAND are required")
  endif()
  list(POP_FRONT PCT_COMMAND cli_target)
  add_test(NAME cli.${name} COMMAND ${CMAKE_COMMAND}
    -DCLI_COMMAND=$<TARGET_FILE:${cli_target}>
    "-DCLI_ARGS=${PCT_COMMAND}"
    -DEXPECT_EXIT=${PCT_EXIT}
    "-DEXPECT_MATCH=${PCT_MATCH}"
    "-DEXPECT_STDOUT_FILE=${PCT_STDOUT_FILE}"
    -P "${PROJECT_SOURCE_DIR}/cmake/RunCliTest.cmake")
  set_tests_properties(cli.${name} PROPERTIES LABELS "unit;cli" TIMEOUT 120)
endfunction()

# pimecc_add_example(<name> [SOURCES <files...>] [SMOKE] [SMOKE_ARGS <args...>])
#
# Builds examples/<name>.cpp.  With SMOKE, also registers the binary as a
# ctest smoke test (label "smoke integration") so examples cannot silently rot.
function(pimecc_add_example name)
  cmake_parse_arguments(PAE "SMOKE" "" "SOURCES;SMOKE_ARGS" ${ARGN})
  if(NOT PAE_SOURCES)
    set(PAE_SOURCES ${name}.cpp)
  endif()
  add_executable(${name} ${PAE_SOURCES})
  target_link_libraries(${name} PRIVATE pimecc)
  pimecc_compile_options(${name})
  if(PAE_SMOKE)
    add_test(NAME example.${name} COMMAND ${name} ${PAE_SMOKE_ARGS})
    set_tests_properties(example.${name} PROPERTIES
      LABELS "smoke;integration" TIMEOUT 120)
  endif()
endfunction()
