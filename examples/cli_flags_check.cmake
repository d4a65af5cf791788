# Checks dpsync_cli's flag handling: --records and --horizon give the same
# report in either order, and a negative --records or a --horizon above the
# cap is refused with the usage text and exit 2.
#
#   cmake -DCLI=build/examples/dpsync_cli -P examples/cli_flags_check.cmake

function(run_cli out_var code_var)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
  set(${out_var} "${out}" PARENT_SCOPE)
  set(${code_var} "${code}" PARENT_SCOPE)
endfunction()

run_cli(records_first code_a --records=18429 --horizon=200 --seed=7)
run_cli(horizon_first code_b --horizon=200 --records=18429 --seed=7)
if(NOT code_a EQUAL 0 OR NOT code_b EQUAL 0)
  message(FATAL_ERROR "dpsync_cli failed: exit ${code_a} and ${code_b}")
endif()
if(NOT records_first STREQUAL horizon_first)
  message(FATAL_ERROR "the order of --records and --horizon changed the "
                      "report:\n${records_first}\nversus\n${horizon_first}")
endif()

foreach(flag IN ITEMS --records=-5 --horizon=1000001)
  run_cli(out code ${flag} --seed=7)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "dpsync_cli ${flag}: exit ${code}, expected 2")
  endif()
endforeach()
