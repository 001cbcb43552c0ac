# Snapshot check: runs CMD with ARGS and compares its stdout byte for byte
# with the file EXPECTED.
#
# Run as `cmake -DCMD=... -DARGS=... -DEXPECTED=... -DACTUAL=... -P
# compare_output.cmake`. The output is kept in ACTUAL, so a failing check can
# be inspected with `diff EXPECTED ACTUAL`; after a deliberate change, copy
# ACTUAL over EXPECTED.

execute_process(
  COMMAND ${CMD} ${ARGS}
  OUTPUT_FILE ${ACTUAL}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CMD} ${ARGS} exited with ${rc}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED} ${ACTUAL}
  RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "output of `${CMD} ${ARGS}` differs from the snapshot\n"
                      "  diff ${EXPECTED} ${ACTUAL}")
endif()
