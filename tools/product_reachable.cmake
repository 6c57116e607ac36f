# pimecc -- tools/product_reachable.cmake
#
# The reachability gate: the shipped library holds what `pimecc` runs.
# Every out-of-line product function (src/ but oracle) is either reached
# from the `pimecc` CLI/daemon or listed, with a reason tag, in
# tools/product_reachable.txt.
#
#   cmake -DSOURCE_DIR=<repo> -DBINARY_DIR=<build dir for this check>
#         -DCXX=<C++ compiler> [-DGENERATOR=<cmake generator>]
#         -P tools/product_reachable.cmake
#
# It builds src/ and tools/ in BINARY_DIR at -O0 -fno-inline
# -ffunction-sections -fdata-sections (one section per function, nothing
# inlined away) with a thin libpimecc.a, so the linker names each member by
# its object path, and relinks pimecc with --gc-sections --print-gc-sections
# and a link map.  A product function is unreached when its unit (archive
# member) is not among the map's included members, or when its section was
# collected.  Only strong C++ text symbols count (nm T/t, mangled names):
# header-inline and template copies are weak COMDAT copies in every unit
# that uses them.
#
# Allowlist lines are `<tag> <unit> <demangled function>`; `#` starts a
# comment.  Tags:
#   api        examples, benches or e2e_bench call it (the per-op protected
#              API, for one)
#   campaign   a reliability/fleet campaign engine no CLI path runs yet
#   oracle     only src/oracle calls it
#   test-only  only the tests call it: move it to src/oracle or the tests,
#              or delete it
# The check fails on an unreached function that is not listed, and on a
# listed function that is reached (or gone), so the list only shrinks.  It
# then checks itself: the allowlist without its first entry, and with one
# reached function added, must both fail.  A pass prints one tally line,
# `N unreached: a api, c campaign, o oracle, t test-only`.
#
# Skipped, with a notice, when the linker is not GNU ld or nm or c++filt is
# missing.
cmake_minimum_required(VERSION 3.24)

foreach(var SOURCE_DIR BINARY_DIR CXX)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "product_reachable: -D${var}=... is required")
  endif()
endforeach()
set(allowlist_file "${SOURCE_DIR}/tools/product_reachable.txt")
set(valid_tags api campaign oracle test-only)

function(skip reason)
  message("product_reachable: skipped: ${reason}")
  # A clean exit: the ctest entry maps this notice to "skipped".
  cmake_language(EXIT 0)
endfunction()

find_program(NM nm)
find_program(CXXFILT c++filt)
if(NOT NM)
  skip("nm not found")
endif()
if(NOT CXXFILT)
  skip("c++filt not found")
endif()
execute_process(COMMAND "${CXX}" -Wl,--version
                OUTPUT_VARIABLE ld_version ERROR_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT ld_version MATCHES "GNU ld")
  skip("the linker is not GNU ld")
endif()

# ---------------------------------------------------------------- build
set(map_file "${BINARY_DIR}/pimecc.map")
set(generator_args)
if(GENERATOR)
  set(generator_args -G "${GENERATOR}")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -S "${SOURCE_DIR}" -B "${BINARY_DIR}"
    ${generator_args}
    "-DCMAKE_CXX_COMPILER=${CXX}"
    -DCMAKE_BUILD_TYPE=None
    "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections -fdata-sections"
    "-DCMAKE_CXX_ARCHIVE_CREATE=<CMAKE_AR> qcT <TARGET> <LINK_FLAGS> <OBJECTS>"
    "-DCMAKE_CXX_ARCHIVE_APPEND=<CMAKE_AR> qT <TARGET> <LINK_FLAGS> <OBJECTS>"
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections -Wl,--print-gc-sections -Wl,-Map=${map_file}"
    -DPIMECC_BUILD_TESTS=OFF -DPIMECC_BUILD_BENCHES=OFF
    -DPIMECC_BUILD_EXAMPLES=OFF -DPIMECC_BUILD_TOOLS=ON
    -DPIMECC_FORCE_SCALAR=OFF -DPIMECC_SANITIZE=OFF -DPIMECC_TSAN=OFF
  OUTPUT_VARIABLE out ERROR_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "product_reachable: configure failed:\n${out}")
endif()
cmake_host_system_information(RESULT jobs QUERY NUMBER_OF_LOGICAL_CORES)
if(jobs GREATER 4)
  set(jobs 4)
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" --build "${BINARY_DIR}" --target pimecc
    --parallel ${jobs}
  OUTPUT_VARIABLE out ERROR_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "product_reachable: building libpimecc.a failed:\n${out}")
endif()
# Relink pimecc on its own, so its output is the linker's gc report.
file(REMOVE "${BINARY_DIR}/tools/pimecc" "${map_file}")
execute_process(
  COMMAND "${CMAKE_COMMAND}" --build "${BINARY_DIR}" --target pimecc_cli
    --parallel ${jobs}
  OUTPUT_VARIABLE link_out ERROR_VARIABLE link_out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT EXISTS "${map_file}")
  message(FATAL_ERROR "product_reachable: linking pimecc failed:\n${link_out}")
endif()

# A product object's unit: its path under src/, e.g. xbar/crossbar.cpp.
set(unit_regex "pimecc_[A-Za-z0-9_]+_objects\\.dir/([^ :']+)\\.o")

# ------------------------------------------------------ collected sections
set(collected)  # "<unit> <mangled>" whose .text section the linker dropped
string(REGEX MATCHALL
  "removing unused section '\\.text\\.[^'\\[]+' in file '[^']+'"
  gc_lines "${link_out}")
foreach(line IN LISTS gc_lines)
  if(line MATCHES "'\\.text\\.(unlikely\\.|hot\\.|startup\\.)?([^']+)' in file '[^']*${unit_regex}'")
    list(APPEND collected "${CMAKE_MATCH_3} ${CMAKE_MATCH_2}")
  endif()
endforeach()

# --------------------------------------------------------- linked members
file(READ "${map_file}" map_text)
string(FIND "${map_text}" "Discarded input sections" cut)
if(cut LESS 0)
  message(FATAL_ERROR "product_reachable: ${map_file} has no member list")
endif()
string(SUBSTRING "${map_text}" 0 ${cut} map_text)
string(REGEX MATCHALL "\n[^ \n]*${unit_regex}[ \n]" member_lines "\n${map_text}")
set(linked)
foreach(line IN LISTS member_lines)
  string(REGEX MATCH "${unit_regex}" unit "${line}")
  list(APPEND linked "${CMAKE_MATCH_1}")
endforeach()
if(NOT linked)
  message(FATAL_ERROR "product_reachable: pimecc linked no product member")
endif()

# ------------------------------------------------------- product functions
execute_process(
  COMMAND "${NM}" -A --defined-only "${BINARY_DIR}/src/libpimecc.a"
  OUTPUT_VARIABLE nm_out ERROR_VARIABLE nm_err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "product_reachable: nm failed: ${nm_err}")
endif()
string(REGEX MATCHALL "[^\n]*\\.o:[0-9a-f]+ [Tt] _Z[^\n]*" nm_lines "${nm_out}")
set(unlinked)  # product units pimecc never linked
set(units)     # per symbol of a linked unit: its unit, name, and whether
set(mangled)   # the linker collected its section
set(dropped)
foreach(line IN LISTS nm_lines)
  if(NOT line MATCHES "${unit_regex}:[0-9a-f]+ [Tt] (_Z[^ ]+)$")
    continue()
  endif()
  set(unit "${CMAKE_MATCH_1}")
  set(symbol "${CMAKE_MATCH_2}")
  if(NOT unit IN_LIST linked)
    list(APPEND unlinked "${unit}")
    continue()
  endif()
  list(APPEND units "${unit}")
  list(APPEND mangled "${symbol}")
  if("${unit} ${symbol}" IN_LIST collected)
    list(APPEND dropped 1)
  else()
    list(APPEND dropped 0)
  endif()
endforeach()
if(NOT mangled)
  message(FATAL_ERROR "product_reachable: nm listed no linked product function")
endif()

# One c++filt call for every name.
list(JOIN mangled "\n" mangled_text)
file(WRITE "${BINARY_DIR}/product_symbols.txt" "${mangled_text}\n")
execute_process(COMMAND "${CXXFILT}"
  INPUT_FILE "${BINARY_DIR}/product_symbols.txt"
  OUTPUT_VARIABLE demangled_text RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "product_reachable: c++filt failed")
endif()
string(REGEX REPLACE "\n$" "" demangled_text "${demangled_text}")
string(REPLACE "\n" ";" demangled "${demangled_text}")

# Entries: `<unit> *` for a unit never linked, `<unit> <function>` for a
# collected function of a linked unit.  Only named product functions count
# (`pimecc::...(args)`): a lambda is part of the function that holds it,
# and a template instantiated with a unit-local type (a std::vector of a
# local struct, say) is library code.  A constructor's or destructor's two
# ABI variants demangle alike and share one section, so an entry is
# unreached when any of its symbols was collected.
set(unreached)
set(reached)
foreach(unit IN LISTS unlinked)
  list(APPEND unreached "${unit} *")
endforeach()
list(LENGTH mangled count)
math(EXPR last "${count} - 1")
foreach(k RANGE ${last})
  list(GET demangled ${k} name)
  if(NOT name MATCHES "^pimecc::" OR name MATCHES "{lambda")
    continue()
  endif()
  list(GET units ${k} unit)
  list(GET dropped ${k} was_dropped)
  if(was_dropped)
    list(APPEND unreached "${unit} ${name}")
  else()
    list(APPEND reached "${unit} ${name}")
  endif()
endforeach()
list(REMOVE_DUPLICATES unreached)
list(SORT unreached)
set(some_reached)
foreach(entry IN LISTS reached)
  if(NOT entry IN_LIST unreached)
    set(some_reached "${entry}")
    break()
  endif()
endforeach()

# -------------------------------------------------------------- compare
# check(<out_var> <allowlist entries...>): sets out_var to the list of
# problems, empty when the entries match the unreached set exactly.
function(check out_var)
  set(problems)
  set(listed)
  foreach(line IN LISTS ARGN)
    if(NOT line MATCHES "^([a-z-]+) +([^ ]+) +(.+)$")
      list(APPEND problems "malformed line: ${line}")
      continue()
    endif()
    if(NOT CMAKE_MATCH_1 IN_LIST valid_tags)
      list(APPEND problems "unknown tag '${CMAKE_MATCH_1}': ${line}")
    endif()
    set(entry "${CMAKE_MATCH_2} ${CMAKE_MATCH_3}")
    list(APPEND listed "${entry}")
    if(NOT entry IN_LIST unreached)
      list(APPEND problems "listed but reached (or gone), remove it: ${entry}")
    endif()
  endforeach()
  foreach(entry IN LISTS unreached)
    if(NOT entry IN_LIST listed)
      list(APPEND problems "unreached and not listed: ${entry}")
    endif()
  endforeach()
  set(${out_var} "${problems}" PARENT_SCOPE)
endfunction()

# Comment lines are dropped as the file is read: file(STRINGS) would split
# one at a `;`.
file(STRINGS "${allowlist_file}" allowlist REGEX "^[ \t]*[^# \t]")
check(problems ${allowlist})
list(LENGTH unreached unreached_count)
if(problems)
  list(JOIN problems "\n  " report)
  message(FATAL_ERROR
    "product_reachable: ${allowlist_file} does not match the ${unreached_count} "
    "unreached entries:\n  ${report}\n"
    "Call an unreached function from a consumer, delete it, or list it with "
    "a tag (${valid_tags}).")
endif()

# Self-test: the comparison must notice a missing and a stale entry.
if(allowlist)
  set(missing_one ${allowlist})
  list(REMOVE_AT missing_one 0)
  check(problems ${missing_one})
  if(NOT problems)
    message(FATAL_ERROR
      "product_reachable: self-test failed: an allowlist missing an entry passed")
  endif()
endif()
check(problems ${allowlist} "test-only ${some_reached}")
if(NOT problems)
  message(FATAL_ERROR
    "product_reachable: self-test failed: an allowlist naming the reached "
    "${some_reached} passed")
endif()

# The tally, per tag: the allowlist now names exactly the unreached set.
set(tally)
foreach(tag IN LISTS valid_tags)
  set(tagged ${allowlist})
  list(FILTER tagged INCLUDE REGEX "^${tag} ")
  list(LENGTH tagged tagged_count)
  list(APPEND tally "${tagged_count} ${tag}")
endforeach()
list(JOIN tally ", " tally)
message("product_reachable: ${unreached_count} unreached: ${tally}")
