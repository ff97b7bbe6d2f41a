# Runs `stormtune tune` on a campaign whose every step measures zero
# throughput and checks its JSON report: "best_config" is null, not the
# default-constructed placeholder nothing ever ran.
#
# Usage: cmake -DSTORMTUNE=<stormtune binary> -DOUT=<report path>
#              -P check_unmeasured_json.cmake
file(REMOVE ${OUT})
execute_process(
  COMMAND ${STORMTUNE} tune small --strategy=bo --what=batch --threads=1
          --json=${OUT}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "expected exit status 1 (nothing measured), got ${rc}")
endif()
file(READ ${OUT} report)
if(NOT report MATCHES "\"best_step\": 0,")
  message(FATAL_ERROR "expected best_step 0 in ${OUT}:\n${report}")
endif()
if(NOT report MATCHES "\"best_config\": null,")
  message(FATAL_ERROR "expected \"best_config\": null in ${OUT}:\n${report}")
endif()
if(report MATCHES "parallelism_hints")
  message(FATAL_ERROR "unmeasured report carries a config:\n${report}")
endif()
