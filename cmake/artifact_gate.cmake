# Artifact validity gate (ctest): run quick scenarios with the JSON, CSV
# and SVG sinks enabled, then re-parse each emitted JSON artifact with the
# bundled reader (`spr_cli validate`). Catches a writer/reader drift the
# unit tests could miss — the gate exercises the exact bytes CI uploads.
#
# Invoked as:
#   cmake -DSPR_CLI=<path-to-spr_cli> -DOUT_DIR=<scratch-dir> -P artifact_gate.cmake

if(NOT DEFINED SPR_CLI OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "artifact_gate.cmake needs -DSPR_CLI=... and -DOUT_DIR=...")
endif()

# Runs `spr_cli run <RUN args>` with one `--<ext> <path>` sink flag per
# ARTIFACTS file (written under OUT_DIR, stale copies removed first), then
# checks that the run exits 0, that every artifact was written and that the
# JSON one re-parses with the bundled reader.
function(expect_artifacts)
  cmake_parse_arguments(PARSE_ARGV 0 gate "" "" "RUN;ARTIFACTS")
  string(REPLACE ";" " " run "${gate_RUN}")
  set(sink_flags)
  set(paths)
  foreach(name ${gate_ARTIFACTS})
    get_filename_component(ext "${name}" LAST_EXT)
    string(SUBSTRING "${ext}" 1 -1 ext)
    list(APPEND sink_flags "--${ext}" "${OUT_DIR}/${name}")
    list(APPEND paths "${OUT_DIR}/${name}")
    if(ext STREQUAL "json")
      set(json_artifact "${OUT_DIR}/${name}")
    endif()
  endforeach()
  file(REMOVE ${paths})

  execute_process(
    COMMAND "${SPR_CLI}" run ${gate_RUN} ${sink_flags}
    RESULT_VARIABLE run_result
    OUTPUT_QUIET)
  if(NOT run_result EQUAL 0)
    message(FATAL_ERROR "spr_cli run ${run} failed (exit ${run_result})")
  endif()
  foreach(artifact ${paths})
    if(NOT EXISTS "${artifact}")
      message(FATAL_ERROR "spr_cli run ${run}: expected artifact missing: "
                          "${artifact}")
    endif()
  endforeach()
  execute_process(
    COMMAND "${SPR_CLI}" validate "${json_artifact}"
    RESULT_VARIABLE validate_result)
  if(NOT validate_result EQUAL 0)
    message(FATAL_ERROR "spr_cli run ${run}: JSON artifact failed to re-parse")
  endif()
endfunction()

expect_artifacts(RUN mobile-stream --networks 2
                 ARTIFACTS artifact-gate.json artifact-gate.csv
                           artifact-gate.svg)
# The two stream scenarios cross-check every incremental relabeling (after
# each failure wave, and after each waypoint re-pin through
# Network::with_moves) against a from-scratch compute_safety and exit
# nonzero on a mismatch, so these runs also guard both update paths.
expect_artifacts(RUN streaming-delivery --networks 1 --pairs 4 --format json,csv
                 ARTIFACTS artifact-gate-stream.json artifact-gate-stream.csv)
expect_artifacts(RUN mobility-rate --networks 1 --pairs 4 --format json,csv
                 ARTIFACTS artifact-gate-mobility.json
                           artifact-gate-mobility.csv)

# Tiles against the monolithic labeling: `label --tiles` exits 1 when the
# tiled labeling differs, so a clean exit is the equality check. The FA
# field has holes (about 500 unsafe nodes, demotions crossing tiles); an
# IA field this dense has none, and equality there would show nothing.
execute_process(
  COMMAND "${SPR_CLI}" label --nodes=3000 --tiles=3x3 --fa
  RESULT_VARIABLE tiles_result
  OUTPUT_QUIET)
if(NOT tiles_result EQUAL 0)
  message(FATAL_ERROR "spr_cli label --nodes=3000 --tiles=3x3 --fa ended "
                      "with '${tiles_result}'; expected 0 (tiles equal "
                      "monolithic)")
endif()

# Hostile-input probes: a negative count, a node count past `int` or past
# the 10^6-node cap, a non-finite or non-positive range, more tiles than
# nodes or than the 64-tile cap, a malformed node id, a value on a `--no-`
# flag, a flag the command does not take, a positional argument it does not
# take (`--fa false` leaves "false" as one) and a removed verb or alias must
# each be rejected, never fall back to a default workload. A rejection is
# exit status 1 (bad usage) or 2 (bad value); any other result, a signal
# included (which execute_process reports as a string such as "Child
# aborted"), is a crash and fails the gate.
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
expect_rejected(label --nodes=10000 --tiles=100x100)
expect_rejected(label --tiles=9x8)
expect_rejected(label --nodes=1000001)
expect_rejected(info --nodes=2000000000)
expect_rejected(info --no-fa=true)
expect_rejected(sweep --tiles 2x2)
expect_rejected(sweep --range=nan --networks 1 --pairs 1)
expect_rejected(route abc 5)
expect_rejected(route 99999999999999999999 5)
expect_rejected(run tile-scaling --networks 3000000)
expect_rejected(run tile-scaling --networks 1001)
expect_rejected(run tile-scaling --networks 2147483)
expect_rejected(info --nodes=300 --fa false)
expect_rejected(label --nodes=50 stray)
expect_rejected(sweep --networks 1 --pairs 1 stray)
expect_rejected(render --nodes=50 "${OUT_DIR}/artifact-gate-render.svg" stray)
expect_rejected(route 1 2 3)
expect_rejected(route 5)
expect_rejected(run fig6-avg-hops extra)
