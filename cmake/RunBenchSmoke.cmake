# Runs one JSON bench in its --smoke configuration and asserts that it exits
# 0 and that its JSON has exactly the key paths of the committed reference
# document (array indices collapsed to "[]"), so a smoke run cannot drift
# from the schema the committed BENCH_<name>.json records.  Registered by
# bench/CMakeLists.txt under the "bench" label:
#
#   cmake -DBENCH_COMMAND=<binary> -DBENCH_OUT=<json in the build tree>
#         -DBENCH_REFERENCE=<committed BENCH_<name>.json> -P RunBenchSmoke.cmake
if(NOT DEFINED BENCH_COMMAND OR NOT DEFINED BENCH_OUT OR NOT DEFINED BENCH_REFERENCE)
  message(FATAL_ERROR
    "RunBenchSmoke: BENCH_COMMAND, BENCH_OUT and BENCH_REFERENCE are required")
endif()

# Appends to `out` the key path of every member below `json`, each path
# prefixed with `label`; array elements share the label "<label>[]".
function(bench_key_paths json label out)
  set(paths "")
  string(JSON type TYPE "${json}")
  string(JSON count LENGTH "${json}")
  if(count GREATER 0)
    math(EXPR last "${count} - 1")
    foreach(i RANGE ${last})
      if(type STREQUAL "OBJECT")
        string(JSON member MEMBER "${json}" ${i})
        set(child_label "${label}.${member}")
      else()
        set(member ${i})
        set(child_label "${label}[]")
      endif()
      list(APPEND paths "${child_label}")
      string(JSON child_type TYPE "${json}" "${member}")
      if(child_type STREQUAL "OBJECT" OR child_type STREQUAL "ARRAY")
        string(JSON child GET "${json}" "${member}")
        bench_key_paths("${child}" "${child_label}" child_paths)
        list(APPEND paths ${child_paths})
      endif()
    endforeach()
  endif()
  list(REMOVE_DUPLICATES paths)
  list(SORT paths)
  set(${out} "${paths}" PARENT_SCOPE)
endfunction()

get_filename_component(out_dir "${BENCH_OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${out_dir}")
file(REMOVE "${BENCH_OUT}")
execute_process(
  COMMAND "${BENCH_COMMAND}" --smoke "--out=${BENCH_OUT}"
  OUTPUT_VARIABLE bench_stdout
  ERROR_VARIABLE bench_stderr
  RESULT_VARIABLE bench_code)
if(NOT bench_code STREQUAL "0")
  message(FATAL_ERROR
    "expected exit 0, got '${bench_code}'\n"
    "command: ${BENCH_COMMAND} --smoke --out=${BENCH_OUT}\n"
    "output:\n${bench_stdout}${bench_stderr}")
endif()

file(READ "${BENCH_OUT}" smoke_json)
file(READ "${BENCH_REFERENCE}" reference_json)
bench_key_paths("${smoke_json}" "" smoke_paths)
bench_key_paths("${reference_json}" "" reference_paths)
if(NOT smoke_paths STREQUAL reference_paths)
  set(missing ${reference_paths})
  set(extra ${smoke_paths})
  if(smoke_paths AND reference_paths)
    list(REMOVE_ITEM missing ${smoke_paths})
    list(REMOVE_ITEM extra ${reference_paths})
  endif()
  message(FATAL_ERROR
    "key paths of ${BENCH_OUT} differ from ${BENCH_REFERENCE}\n"
    "missing: ${missing}\n"
    "extra: ${extra}")
endif()
list(LENGTH smoke_paths path_count)
message(STATUS "${path_count} key paths match ${BENCH_REFERENCE}")
