# Checks that the src/ module graph is a DAG in the order DESIGN.md §3
# lists: every `#include "dir/..."` in src/<module>/ must name a module
# strictly below <module> in the "Dependency order (bottom-up)" line.
# Modules separated by a comma share a level and may not include each
# other. A src/ directory missing from the line is an error too.
#
#   cmake -DROOT=<repo root> -P tests/module_order_lint.cmake

if(NOT ROOT)
  message(FATAL_ERROR "usage: cmake -DROOT=<repo root> -P module_order_lint.cmake")
endif()

file(STRINGS "${ROOT}/DESIGN.md" order_line ENCODING UTF-8
     REGEX "^Dependency order \\(bottom-up\\):")
if(NOT order_line)
  message(FATAL_ERROR "DESIGN.md has no 'Dependency order (bottom-up):' line")
endif()
string(REGEX REPLACE "^Dependency order \\(bottom-up\\):" "" order "${order_line}")
string(REGEX REPLACE "\\.[ ]*$" "" order "${order}")
string(REPLACE "→" ";" levels "${order}")

set(level 0)
foreach(group IN LISTS levels)
  string(REPLACE "," ";" modules "${group}")
  foreach(module IN LISTS modules)
    string(STRIP "${module}" module)
    set(level_of_${module} ${level})
  endforeach()
  math(EXPR level "${level} + 1")
endforeach()

file(GLOB_RECURSE sources RELATIVE "${ROOT}/src" "${ROOT}/src/*.h"
     "${ROOT}/src/*.cc")
set(violations "")
foreach(source IN LISTS sources)
  string(REGEX REPLACE "/.*" "" from "${source}")
  if(NOT DEFINED level_of_${from})
    list(APPEND violations "src/${from} is not in DESIGN.md §3's dependency order")
    continue()
  endif()
  file(STRINGS "${ROOT}/src/${source}" includes REGEX "^#include \"[^\"/]+/")
  foreach(include IN LISTS includes)
    string(REGEX REPLACE "^#include \"([^\"/]+)/.*" "\\1" to "${include}")
    if(to STREQUAL from)
      continue()
    endif()
    if(NOT DEFINED level_of_${to} OR
       NOT level_of_${to} LESS level_of_${from})
      list(APPEND violations
           "src/${source} includes ${to}/, which is not below ${from} in DESIGN.md §3's dependency order")
    endif()
  endforeach()
endforeach()

if(violations)
  list(REMOVE_DUPLICATES violations)
  string(REPLACE ";" "\n  " violations "${violations}")
  message(FATAL_ERROR "module order violated:\n  ${violations}")
endif()
list(LENGTH sources num_sources)
message(STATUS "module order holds over ${num_sources} src/ files")
