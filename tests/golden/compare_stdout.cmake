# Runs a program and compares its stdout byte for byte with a golden file.
#
#   cmake -DEXE=<program> -DARGS="a;b" -DEXPECTED=<file> -DACTUAL=<file>
#         -P compare_stdout.cmake
#
# The A2A_* knobs that change what the examples print (autotune mode and
# profile, repetitions, noise, backend) are unset, so the result does not
# depend on the caller's environment. On a mismatch the actual output is
# left in ACTUAL for diffing.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env --unset=A2A_AUTOTUNE --unset=A2A_PROFILE
          --unset=A2A_BENCH_REPS --unset=A2A_NOISE --unset=A2A_BACKEND
          ${EXE} ${ARGS}
  OUTPUT_FILE ${ACTUAL}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} ${ARGS} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL} ${EXPECTED}
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  file(READ ${ACTUAL} got)
  message(FATAL_ERROR "stdout differs from ${EXPECTED}; got (also in "
                      "${ACTUAL}):\n${got}")
endif()
