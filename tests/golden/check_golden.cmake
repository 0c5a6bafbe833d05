# Runs one golden case and compares its output with the checked-in file
# byte for byte (see gaudi_golden in tests/CMakeLists.txt).  A report
# command runs with `--timing-only MODE` and its stdout is compared; a
# `batch <cfg> --csv` case runs a copy of the config whose `timing-only on`
# directives read `timing-only MODE`, and its CSV is compared.  Variables
# that change simulated results are cleared, so the goldens pin the default
# configuration in every CI lane; GAUDI_VALIDATE only audits and stays.

foreach(var GAUDI_GUARD GAUDI_FAULTS GAUDI_FAULT_SEED GAUDI_TIMING_ONLY
            GAUDI_MEMO_FILE)
  unset(ENV{${var}})
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
list(GET args 0 command)
if(command STREQUAL "batch")
  list(GET args 1 config)
  file(READ "${SOURCE_DIR}/${config}" text)
  string(REPLACE "timing-only on" "timing-only ${MODE}" text "${text}")
  file(WRITE "${WORK}.cfg" "${text}")
  set(output "${WORK}.csv")
  execute_process(COMMAND "${CLI}" batch "${WORK}.cfg" --csv "${output}"
                  RESULT_VARIABLE rc OUTPUT_QUIET)
else()
  set(output "${WORK}.txt")
  execute_process(COMMAND "${CLI}" ${args} --timing-only ${MODE}
                  RESULT_VARIABLE rc OUTPUT_FILE "${output}")
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gaudisim_cli ${ARGS} exited with ${rc}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${output}"
                        "${GOLDEN}"
                RESULT_VARIABLE differs)
if(differs)
  file(READ "${output}" got)
  message("${got}")
  message(FATAL_ERROR "the output above (${output}) differs from ${GOLDEN}")
endif()
