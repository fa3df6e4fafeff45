# Artifact validity gate (ctest): run a quick scenario with the JSON, CSV
# and SVG sinks enabled, then re-parse the emitted JSON artifact with the
# bundled reader (`spr_cli validate`). Catches a writer/reader drift the
# unit tests could miss — the gate exercises the exact bytes CI uploads.
#
# Invoked as:
#   cmake -DSPR_CLI=<path-to-spr_cli> -DOUT_DIR=<scratch-dir> -P artifact_gate.cmake

if(NOT DEFINED SPR_CLI OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "artifact_gate.cmake needs -DSPR_CLI=... and -DOUT_DIR=...")
endif()

set(json "${OUT_DIR}/artifact-gate.json")
set(csv "${OUT_DIR}/artifact-gate.csv")
set(svg "${OUT_DIR}/artifact-gate.svg")

execute_process(
  COMMAND "${SPR_CLI}" run mobile-stream --networks 2
          --json "${json}" --csv "${csv}" --svg "${svg}"
  RESULT_VARIABLE run_result
  OUTPUT_QUIET)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "scenario run failed (exit ${run_result})")
endif()

foreach(artifact "${json}" "${csv}" "${svg}")
  if(NOT EXISTS "${artifact}")
    message(FATAL_ERROR "expected artifact missing: ${artifact}")
  endif()
endforeach()

execute_process(
  COMMAND "${SPR_CLI}" validate "${json}"
  RESULT_VARIABLE validate_result)
if(NOT validate_result EQUAL 0)
  message(FATAL_ERROR "emitted JSON artifact failed to re-parse")
endif()

# Streaming-delivery: the discrete-event stream with mid-stream failure
# waves. The scenario itself cross-checks each wave's incremental
# relabeling against a from-scratch recompute (nonzero exit on mismatch),
# so this gate also guards the safety layer's incremental path.
set(stream_json "${OUT_DIR}/artifact-gate-stream.json")
set(stream_csv "${OUT_DIR}/artifact-gate-stream.csv")

execute_process(
  COMMAND "${SPR_CLI}" run streaming-delivery --networks 1 --pairs 4
          --format json,csv --json "${stream_json}" --csv "${stream_csv}"
  RESULT_VARIABLE stream_result
  OUTPUT_QUIET)
if(NOT stream_result EQUAL 0)
  message(FATAL_ERROR "streaming-delivery run failed (exit ${stream_result})")
endif()

foreach(artifact "${stream_json}" "${stream_csv}")
  if(NOT EXISTS "${artifact}")
    message(FATAL_ERROR "expected artifact missing: ${artifact}")
  endif()
endforeach()

execute_process(
  COMMAND "${SPR_CLI}" validate "${stream_json}"
  RESULT_VARIABLE stream_validate)
if(NOT stream_validate EQUAL 0)
  message(FATAL_ERROR "streaming-delivery JSON artifact failed to re-parse")
endif()

# Mobility-rate: random-waypoint re-pins riding the *incremental* motion
# path (Network::with_moves). The scenario cross-checks every re-pin's
# bidirectional relabeling against a from-scratch compute_safety and exits
# nonzero on divergence, so this gate also guards the motion updater.
set(mobility_json "${OUT_DIR}/artifact-gate-mobility.json")
set(mobility_csv "${OUT_DIR}/artifact-gate-mobility.csv")

execute_process(
  COMMAND "${SPR_CLI}" run mobility-rate --networks 1 --pairs 4
          --format json,csv --json "${mobility_json}" --csv "${mobility_csv}"
  RESULT_VARIABLE mobility_result
  OUTPUT_QUIET)
if(NOT mobility_result EQUAL 0)
  message(FATAL_ERROR "mobility-rate run failed (exit ${mobility_result})")
endif()

foreach(artifact "${mobility_json}" "${mobility_csv}")
  if(NOT EXISTS "${artifact}")
    message(FATAL_ERROR "expected artifact missing: ${artifact}")
  endif()
endforeach()

execute_process(
  COMMAND "${SPR_CLI}" validate "${mobility_json}"
  RESULT_VARIABLE mobility_validate)
if(NOT mobility_validate EQUAL 0)
  message(FATAL_ERROR "mobility-rate JSON artifact failed to re-parse")
endif()

# Hostile-input probes: a negative count, a non-finite or non-positive
# range, more tiles than nodes, a malformed node id, a flag the command
# does not take and a removed verb or alias must each be rejected, never
# fall back to a default workload. A rejection is exit status 1 (bad usage) or 2 (bad value); any
# other result, a signal included (which execute_process reports as a
# string such as "Child aborted"), is a crash and fails the gate.
function(expect_rejected)
  execute_process(
    COMMAND "${SPR_CLI}" ${ARGN}
    RESULT_VARIABLE probe_result
    OUTPUT_QUIET ERROR_QUIET)
  if(NOT (probe_result STREQUAL "1" OR probe_result STREQUAL "2"))
    string(REPLACE ";" " " probe "${ARGN}")
    message(FATAL_ERROR
            "spr_cli ${probe} ended with '${probe_result}'; expected a "
            "rejection (exit 1 or 2)")
  endif()
endfunction()

expect_rejected(run sweep-scaling --networks -3 --pairs -2)
expect_rejected(run mobile-stream --threads -2)
expect_rejected(sweep --pairs=-3)
expect_rejected(sweep --networks=-1)
expect_rejected(sweep --threads=-2)
expect_rejected(sweep --nodes=400)
expect_rejected(scenario mobile-stream)
expect_rejected(sweep --shard 1/2 --json "${OUT_DIR}/artifact-gate-shard.json")
expect_rejected(label --nodes=-5)
expect_rejected(label --range=nan)
expect_rejected(label --range=-3)
expect_rejected(label --range=inf)
expect_rejected(label --tiles=1000x1000 --nodes=50)
expect_rejected(sweep --tiles 2x2)
expect_rejected(sweep --range=nan --networks 1 --pairs 1)
expect_rejected(route abc 5)
expect_rejected(route 99999999999999999999 5)
