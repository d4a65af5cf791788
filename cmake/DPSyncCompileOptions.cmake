# Shared compile options for the dpsync layer libraries.
#
# dpsync_warnings       — strict -Wall -Wextra interface, applied to the
#                         library targets, the bench programs (and
#                         dpsync_bench_util) and the examples. Tests stay
#                         warning-tolerant: the replaced global operator
#                         new/delete in tests/wire_test.cc alone draws
#                         35 (-O3) to 50 (-O2) -Wmismatched-new-delete
#                         warnings from GCC 12 under -Wall.
# dpsync_build_settings — sanitizers and other whole-build settings.

add_library(dpsync_warnings INTERFACE)
if(CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
  target_compile_options(dpsync_warnings INTERFACE -Wall -Wextra)
  if(DPSYNC_WERROR)
    target_compile_options(dpsync_warnings INTERFACE -Werror)
  endif()
elseif(MSVC)
  target_compile_options(dpsync_warnings INTERFACE /W4)
  if(DPSYNC_WERROR)
    target_compile_options(dpsync_warnings INTERFACE /WX)
  endif()
endif()

add_library(dpsync_build_settings INTERFACE)
if(DPSYNC_SANITIZE)
  if(NOT CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
    message(FATAL_ERROR "DPSYNC_SANITIZE requires GCC or Clang")
  endif()
  target_compile_options(dpsync_build_settings INTERFACE
    -fsanitize=${DPSYNC_SANITIZE} -fno-omit-frame-pointer -g)
  target_link_options(dpsync_build_settings INTERFACE
    -fsanitize=${DPSYNC_SANITIZE})
endif()

# dpsync_add_library(<layer> SOURCES <files...> [DEPS <layer libs...>])
#
# Declares one layer library with the repo-wide include root (src/) and the
# strict warning set. Header-only layers (no SOURCES) become INTERFACE
# targets transparently.
function(dpsync_add_library name)
  cmake_parse_arguments(ARG "" "" "SOURCES;DEPS" ${ARGN})
  if(ARG_SOURCES)
    add_library(${name} STATIC ${ARG_SOURCES})
    target_include_directories(${name} PUBLIC "${PROJECT_SOURCE_DIR}/src")
    target_link_libraries(${name}
      PUBLIC ${ARG_DEPS} dpsync_build_settings
      PRIVATE dpsync_warnings)
  else()
    add_library(${name} INTERFACE)
    target_include_directories(${name} INTERFACE "${PROJECT_SOURCE_DIR}/src")
    target_link_libraries(${name} INTERFACE ${ARG_DEPS} dpsync_build_settings)
  endif()
  add_library(dpsync::${name} ALIAS ${name})
endfunction()
