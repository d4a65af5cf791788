# GoogleTest resolution cascade. Exposes one canonical target:
#
#   dpsync::gtest_main  — gtest + a main() entry point
#
# Order of preference:
#   1. An installed GoogleTest (find_package, incl. the Debian
#      /usr/src/googletest source package).
#   2. The vendored single-header shim under third_party/minigtest —
#      a subset implementation, so a machine without GoogleTest still
#      builds and runs every suite. Nothing is downloaded.
#
# Override with -DDPSYNC_GTEST_PROVIDER=system|vendored.

set(DPSYNC_GTEST_PROVIDER "auto" CACHE STRING
  "GoogleTest provider: auto|system|vendored")
set_property(CACHE DPSYNC_GTEST_PROVIDER PROPERTY STRINGS
  auto system vendored)

if(NOT DPSYNC_GTEST_PROVIDER MATCHES "^(auto|system|vendored)$")
  message(FATAL_ERROR
    "DPSYNC_GTEST_PROVIDER must be auto|system|vendored, "
    "got '${DPSYNC_GTEST_PROVIDER}'")
endif()

set(_dpsync_gtest_found FALSE)

# --- 1. Installed GoogleTest ------------------------------------------------
if(DPSYNC_GTEST_PROVIDER STREQUAL "auto" OR DPSYNC_GTEST_PROVIDER STREQUAL "system")
  find_package(GTest QUIET)
  if(GTest_FOUND AND TARGET GTest::gtest_main)
    add_library(dpsync_gtest_main INTERFACE)
    target_link_libraries(dpsync_gtest_main INTERFACE GTest::gtest_main)
    set(_dpsync_gtest_found TRUE)
    message(STATUS "dpsync: using installed GoogleTest")
  elseif(EXISTS "/usr/src/googletest/CMakeLists.txt")
    # Debian/Ubuntu googletest source package (libgtest-dev).
    set(INSTALL_GTEST OFF CACHE BOOL "" FORCE)
    add_subdirectory(/usr/src/googletest
      "${CMAKE_BINARY_DIR}/_deps/system-googletest" EXCLUDE_FROM_ALL)
    add_library(dpsync_gtest_main INTERFACE)
    target_link_libraries(dpsync_gtest_main INTERFACE gtest_main)
    set(_dpsync_gtest_found TRUE)
    message(STATUS "dpsync: using /usr/src/googletest source package")
  elseif(DPSYNC_GTEST_PROVIDER STREQUAL "system")
    message(FATAL_ERROR "DPSYNC_GTEST_PROVIDER=system but no installed GoogleTest found")
  endif()
endif()

# --- 2. Vendored single-header shim ----------------------------------------
if(NOT _dpsync_gtest_found)
  add_library(dpsync_minigtest_main STATIC
    "${PROJECT_SOURCE_DIR}/third_party/minigtest/gtest_main.cc")
  target_include_directories(dpsync_minigtest_main PUBLIC
    "${PROJECT_SOURCE_DIR}/third_party/minigtest")
  add_library(dpsync_gtest_main INTERFACE)
  target_link_libraries(dpsync_gtest_main INTERFACE dpsync_minigtest_main)
  set(_dpsync_gtest_found TRUE)
  message(STATUS "dpsync: using vendored minigtest shim")
endif()

add_library(dpsync::gtest_main ALIAS dpsync_gtest_main)
