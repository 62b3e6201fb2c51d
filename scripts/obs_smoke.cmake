# ctest script for the observability smoke lanes (trace_smoke,
# timeline_smoke, mrc_smoke): runs a bench with one plane on, then
# re-validates what it wrote *offline* with the plane's report tool — an
# independent re-implementation of the plane's invariants, so a bug in the
# C++ side can't vouch for itself.  Invoked as:
#
#   cmake -DBENCH_BIN=... -DBENCH_FLAG=--trace-out -DPYTHON=... \
#         -DREPORT=tools/trace_report.py [-DREPORT_ARGS="--expect x.json"] \
#         -DOUT=... -P scripts/obs_smoke.cmake
#
# REPORT_ARGS is split like a shell command line and placed between
# --validate and the output file.  Fails (FATAL_ERROR) when the bench's own
# in-process gates, the dump write, or the offline validation fails.

foreach(var BENCH_BIN BENCH_FLAG PYTHON REPORT OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "obs_smoke.cmake: missing -D${var}=...")
  endif()
endforeach()
separate_arguments(report_args UNIX_COMMAND "${REPORT_ARGS}")

execute_process(
  COMMAND ${BENCH_BIN} ${BENCH_FLAG} ${OUT}
  RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "${BENCH_BIN} ${BENCH_FLAG} failed (rc=${bench_rc}): "
                      "the bench's in-process gates or the dump write failed")
endif()

execute_process(
  COMMAND ${PYTHON} ${REPORT} --validate ${report_args} ${OUT}
  RESULT_VARIABLE validate_rc)
if(NOT validate_rc EQUAL 0)
  message(FATAL_ERROR "${REPORT} --validate rejected ${OUT} (rc=${validate_rc})")
endif()
