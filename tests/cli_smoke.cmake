# Smoke test for the hpfc CLI, run as a ctest script test:
#   cmake -DHPFC_BIN=<path-to-hpfc> -DHPFC_SOURCE_DIR=<repo-root> -P cli_smoke.cmake
#
# Compiles examples/quickstart.hpf (the HPF-lite form of
# examples/quickstart.cpp) at all three levels via --run --compare and
# asserts:
#   1. exit code 0 with every level matching the sequential oracle,
#   2. O2 copies strictly fewer elements than O0 (the final
#      mapping-restoring redistribution is removed as useless), and
#   3. a source with a zero extent is rejected with a diagnostic and a
#      non-zero exit, never an abort.
if(NOT DEFINED HPFC_BIN)
  message(FATAL_ERROR "cli_smoke: pass -DHPFC_BIN=<path to hpfc>")
endif()
if(NOT DEFINED HPFC_SOURCE_DIR)
  get_filename_component(HPFC_SOURCE_DIR "${CMAKE_CURRENT_LIST_DIR}/.." ABSOLUTE)
endif()

get_filename_component(_bin_dir "${HPFC_BIN}" DIRECTORY)
set(report_json "${_bin_dir}/cli_smoke_report.json")
file(REMOVE "${report_json}")

execute_process(
  COMMAND "${HPFC_BIN}" "${HPFC_SOURCE_DIR}/examples/quickstart.hpf"
          --run --compare --validate --report-json=${report_json}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE status)

if(NOT status EQUAL 0)
  message(FATAL_ERROR
    "cli_smoke: hpfc exited with ${status}\nstdout:\n${out}\nstderr:\n${err}")
endif()

foreach(level O0 O1 O2)
  if(NOT out MATCHES "${level}: [0-9]+ copies")
    message(FATAL_ERROR "cli_smoke: missing ${level} row in output:\n${out}")
  endif()
endforeach()

if(out MATCHES "MISMATCH")
  message(FATAL_ERROR "cli_smoke: a level diverged from the oracle:\n${out}")
endif()

string(REGEX MATCH "O0: [0-9]+ copies \\(([0-9]+) elems\\)" _ "${out}")
set(o0_elems "${CMAKE_MATCH_1}")
string(REGEX MATCH "O2: [0-9]+ copies \\(([0-9]+) elems\\)" _ "${out}")
set(o2_elems "${CMAKE_MATCH_1}")
if(o0_elems STREQUAL "" OR o2_elems STREQUAL "")
  message(FATAL_ERROR "cli_smoke: could not parse copy counts from:\n${out}")
endif()

if(NOT o2_elems LESS o0_elems)
  message(FATAL_ERROR
    "cli_smoke: expected O2 to copy strictly fewer elements than O0 "
    "(O0=${o0_elems}, O2=${o2_elems}):\n${out}")
endif()

# --report-json: the dumped RunReport must exist, carry the schema marker,
# one entry per level, and agree with the stdout elements-copied counts.
if(NOT EXISTS "${report_json}")
  message(FATAL_ERROR "cli_smoke: --report-json did not write ${report_json}")
endif()
file(READ "${report_json}" report)

if(NOT report MATCHES "\"schema\": \"hpfc-report-v1\"")
  message(FATAL_ERROR "cli_smoke: report JSON missing schema marker:\n${report}")
endif()
# Machine configuration: resolved rank count, execution backend, threads.
if(NOT report MATCHES "\"ranks\": [1-9][0-9]*")
  message(FATAL_ERROR "cli_smoke: report JSON missing resolved ranks:\n${report}")
endif()
if(NOT report MATCHES "\"backend\": \"seq\"")
  message(FATAL_ERROR "cli_smoke: report JSON missing backend:\n${report}")
endif()
if(NOT report MATCHES "\"threads\": [0-9]+")
  message(FATAL_ERROR "cli_smoke: report JSON missing threads:\n${report}")
endif()
if(NOT report MATCHES "\"exec_ms\": [0-9]")
  message(FATAL_ERROR "cli_smoke: report JSON missing exec_ms:\n${report}")
endif()
# The per-phase wall-clock split of exec_ms (pack / exchange / unpack)
# and the snapshot clocks (0 here — snapshots are off without
# --snapshot-dir, but the keys must exist).
foreach(timer pack_ms exchange_ms unpack_ms snapshot_ms restore_ms)
  if(NOT report MATCHES "\"${timer}\": [0-9]")
    message(FATAL_ERROR "cli_smoke: report JSON missing ${timer}:\n${report}")
  endif()
endforeach()
foreach(level O0 O1 O2)
  if(NOT report MATCHES "\"level\": \"${level}\"")
    message(FATAL_ERROR "cli_smoke: report JSON missing ${level} entry:\n${report}")
  endif()
endforeach()
foreach(field copies_performed elements_copied messages bytes segments
        supersteps fused_copies
        plan_cache_hits plan_cache_misses symbolic_instantiations
        plan_evictions packed_bytes local_fastpath_copies
        skipped_already_mapped skipped_live_copy
        wire_bytes wire_msgs proc_spawns
        snapshot_bytes snapshot_runs_written)
  if(NOT report MATCHES "\"${field}\": [0-9]+")
    message(FATAL_ERROR "cli_smoke: report JSON missing ${field}:\n${report}")
  endif()
endforeach()
if(NOT report MATCHES "\"sim_time_ms\": [0-9]")
  message(FATAL_ERROR "cli_smoke: report JSON missing sim_time_ms:\n${report}")
endif()
# No real sockets under the in-process backends: seq wire counters are 0.
if(report MATCHES "\"proc_spawns\": [1-9]")
  message(FATAL_ERROR
    "cli_smoke: seq run claims to have spawned workers:\n${report}")
endif()
# The default path serves plan slots from the symbolic plan cache: every
# executed level binds at least one (N, P) instance.
if(report MATCHES "\"plan_cache_misses\": 0[,}]")
  message(FATAL_ERROR
    "cli_smoke: default run never touched the symbolic plan cache:\n${report}")
endif()
if(report MATCHES "\"oracle_match\": false")
  message(FATAL_ERROR "cli_smoke: report JSON records an oracle mismatch:\n${report}")
endif()

string(REGEX MATCH "\"level\": \"O0\", \"copies_performed\": [0-9]+, \"elements_copied\": ([0-9]+)" _ "${report}")
if(NOT CMAKE_MATCH_1 STREQUAL o0_elems)
  message(FATAL_ERROR
    "cli_smoke: report JSON O0 elements (${CMAKE_MATCH_1}) disagree with "
    "stdout (${o0_elems}):\n${report}")
endif()
string(REGEX MATCH "\"level\": \"O2\", \"copies_performed\": [0-9]+, \"elements_copied\": ([0-9]+)" _ "${report}")
if(NOT CMAKE_MATCH_1 STREQUAL o2_elems)
  message(FATAL_ERROR
    "cli_smoke: report JSON O2 elements (${CMAKE_MATCH_1}) disagree with "
    "stdout (${o2_elems}):\n${report}")
endif()

# The thread-per-rank backend must reproduce the same per-level counters:
# re-run the compare under --backend=thread and diff the count fields
# (wall-clock fields excluded) against the seq report.
set(thread_report_json "${_bin_dir}/cli_smoke_report_thread.json")
file(REMOVE "${thread_report_json}")
execute_process(
  COMMAND "${HPFC_BIN}" "${HPFC_SOURCE_DIR}/examples/quickstart.hpf"
          --run --compare --backend=thread --threads=3
          --report-json=${thread_report_json}
  OUTPUT_VARIABLE thread_out
  ERROR_VARIABLE thread_err
  RESULT_VARIABLE thread_status)
if(NOT thread_status EQUAL 0)
  message(FATAL_ERROR "cli_smoke: hpfc --backend=thread exited with "
    "${thread_status}\nstdout:\n${thread_out}\nstderr:\n${thread_err}")
endif()
if(thread_out MATCHES "MISMATCH")
  message(FATAL_ERROR
    "cli_smoke: thread backend diverged from the oracle:\n${thread_out}")
endif()
file(READ "${thread_report_json}" thread_report)
if(NOT thread_report MATCHES "\"backend\": \"thread\"")
  message(FATAL_ERROR
    "cli_smoke: thread report JSON missing backend key:\n${thread_report}")
endif()
foreach(field copies_performed elements_copied messages bytes local_copies
        segments supersteps fused_copies plan_cache_hits plan_cache_misses
        symbolic_instantiations plan_evictions packed_bytes
        local_fastpath_copies skipped_already_mapped skipped_live_copy)
  string(REGEX MATCHALL "\"${field}\": [0-9]+" seq_counts "${report}")
  string(REGEX MATCHALL "\"${field}\": [0-9]+" thread_counts "${thread_report}")
  if(NOT seq_counts STREQUAL thread_counts)
    message(FATAL_ERROR
      "cli_smoke: ${field} differs between backends\nseq:    ${seq_counts}\n"
      "thread: ${thread_counts}")
  endif()
endforeach()

# The real-process socket backend must reproduce the same per-level
# counters: NetStats are computed from the routed inboxes after the framed
# payloads physically cross the worker sockets, so every communication
# counter must agree with seq byte-for-byte while the wire counters
# (socket traffic that only exists here) come alive.
set(proc_report_json "${_bin_dir}/cli_smoke_report_proc.json")
file(REMOVE "${proc_report_json}")
execute_process(
  COMMAND "${HPFC_BIN}" "${HPFC_SOURCE_DIR}/examples/quickstart.hpf"
          --run --compare --backend=proc
          --report-json=${proc_report_json}
  OUTPUT_VARIABLE proc_out
  ERROR_VARIABLE proc_err
  RESULT_VARIABLE proc_status)
if(NOT proc_status EQUAL 0)
  message(FATAL_ERROR "cli_smoke: hpfc --backend=proc exited with "
    "${proc_status}\nstdout:\n${proc_out}\nstderr:\n${proc_err}")
endif()
if(proc_out MATCHES "MISMATCH")
  message(FATAL_ERROR
    "cli_smoke: proc backend diverged from the oracle:\n${proc_out}")
endif()
file(READ "${proc_report_json}" proc_report)
if(NOT proc_report MATCHES "\"backend\": \"proc\"")
  message(FATAL_ERROR
    "cli_smoke: proc report JSON missing backend key:\n${proc_report}")
endif()
foreach(field copies_performed elements_copied messages bytes local_copies
        segments supersteps fused_copies plan_cache_hits plan_cache_misses
        symbolic_instantiations plan_evictions packed_bytes
        local_fastpath_copies skipped_already_mapped skipped_live_copy)
  string(REGEX MATCHALL "\"${field}\": [0-9]+" seq_counts "${report}")
  string(REGEX MATCHALL "\"${field}\": [0-9]+" proc_counts "${proc_report}")
  if(NOT seq_counts STREQUAL proc_counts)
    message(FATAL_ERROR
      "cli_smoke: ${field} differs between backends\nseq:  ${seq_counts}\n"
      "proc: ${proc_counts}")
  endif()
endforeach()
# ...but the wire counters must be live: each executed level forked real
# workers and shipped framed payloads through real sockets.
if(proc_report MATCHES "\"proc_spawns\": 0[,}]")
  message(FATAL_ERROR
    "cli_smoke: proc run spawned no workers:\n${proc_report}")
endif()
if(proc_report MATCHES "\"wire_bytes\": 0[,}]")
  message(FATAL_ERROR
    "cli_smoke: proc run moved no bytes over the wire:\n${proc_report}")
endif()

# --list-toggles: the machine-parsable registry table run_benches
# validates passthrough flags against.
execute_process(
  COMMAND "${HPFC_BIN}" --list-toggles
  OUTPUT_VARIABLE toggles_out
  ERROR_VARIABLE toggles_err
  RESULT_VARIABLE toggles_status)
if(NOT toggles_status EQUAL 0)
  message(FATAL_ERROR "cli_smoke: hpfc --list-toggles exited with "
    "${toggles_status}\nstderr:\n${toggles_err}")
endif()
# The registry holds exactly the three remaining toggles, then the
# value-taking knobs.
string(REGEX MATCHALL "--[a-z-]+\t" toggle_flags "${toggles_out}")
if(NOT toggle_flags STREQUAL "--unfuse-copy-groups\t;--paranoid\t;--proc-tcp\t")
  message(FATAL_ERROR
    "cli_smoke: --list-toggles should list exactly --unfuse-copy-groups, "
    "--paranoid and --proc-tcp:\n${toggles_out}")
endif()
foreach(flag proc-timeout-ms= snapshot-dir= snapshot-every=)
  if(NOT toggles_out MATCHES "--${flag}\t")
    message(FATAL_ERROR
      "cli_smoke: --list-toggles is missing --${flag}:\n${toggles_out}")
  endif()
endforeach()

# Malformed input: a zero extent is a front-end diagnostic, not an
# InternalError abort (exit 134).
set(zero_source "${_bin_dir}/cli_smoke_zero_extent.hpf")
file(WRITE "${zero_source}"
  "routine zero\nprocessors P(4)\nreal A(0)\n"
  "distribute A(block) onto P\nbegin\n  use(A)\nend\n")
execute_process(
  COMMAND "${HPFC_BIN}" "${zero_source}" --run
  OUTPUT_VARIABLE zero_out
  ERROR_VARIABLE zero_err
  RESULT_VARIABLE zero_status)
if(zero_status EQUAL 0 OR NOT zero_status MATCHES "^[0-9]+$"
   OR zero_status EQUAL 134)
  message(FATAL_ERROR
    "cli_smoke: a zero extent should fail with a diagnostic, got exit "
    "'${zero_status}'\nstdout:\n${zero_out}\nstderr:\n${zero_err}")
endif()
if(NOT zero_err MATCHES "parse-error.*extent must be positive")
  message(FATAL_ERROR
    "cli_smoke: zero extent produced no diagnostic on stderr:\n${zero_err}")
endif()

# --snapshot-dir: the run seals crash-consistent snapshots, the report's
# snapshot counters come alive, and the CLI's own post-run restore fills
# restore_ms. A thread-backend rerun must journal byte-identical
# snapshot work (the counters are program-structural).
set(snap_dir "${_bin_dir}/cli_smoke_snapshots")
file(REMOVE_RECURSE "${snap_dir}")
set(snap_report_json "${_bin_dir}/cli_smoke_report_snap.json")
file(REMOVE "${snap_report_json}")
execute_process(
  COMMAND "${HPFC_BIN}" "${HPFC_SOURCE_DIR}/examples/quickstart.hpf"
          --run --snapshot-dir=${snap_dir}
          --report-json=${snap_report_json}
  OUTPUT_VARIABLE snap_out
  ERROR_VARIABLE snap_err
  RESULT_VARIABLE snap_status)
if(NOT snap_status EQUAL 0)
  message(FATAL_ERROR "cli_smoke: hpfc --snapshot-dir exited with "
    "${snap_status}\nstdout:\n${snap_out}\nstderr:\n${snap_err}")
endif()
if(NOT EXISTS "${snap_dir}/journal" OR NOT EXISTS "${snap_dir}/manifest")
  message(FATAL_ERROR
    "cli_smoke: --snapshot-dir left no sealed journal/manifest in ${snap_dir}")
endif()
file(READ "${snap_report_json}" snap_report)
foreach(field snapshot_bytes snapshot_runs_written)
  if(snap_report MATCHES "\"${field}\": 0[,}]")
    message(FATAL_ERROR
      "cli_smoke: snapshot run recorded ${field} = 0:\n${snap_report}")
  endif()
endforeach()
set(snap_thread_dir "${_bin_dir}/cli_smoke_snapshots_thread")
file(REMOVE_RECURSE "${snap_thread_dir}")
set(snap_thread_json "${_bin_dir}/cli_smoke_report_snap_thread.json")
file(REMOVE "${snap_thread_json}")
execute_process(
  COMMAND "${HPFC_BIN}" "${HPFC_SOURCE_DIR}/examples/quickstart.hpf"
          --run --backend=thread --snapshot-dir=${snap_thread_dir}
          --report-json=${snap_thread_json}
  OUTPUT_VARIABLE snap_thread_out
  ERROR_VARIABLE snap_thread_err
  RESULT_VARIABLE snap_thread_status)
if(NOT snap_thread_status EQUAL 0)
  message(FATAL_ERROR "cli_smoke: thread snapshot run exited with "
    "${snap_thread_status}\nstderr:\n${snap_thread_err}")
endif()
file(READ "${snap_thread_json}" snap_thread_report)
foreach(field snapshot_bytes snapshot_runs_written)
  string(REGEX MATCHALL "\"${field}\": [0-9]+" seq_counts "${snap_report}")
  string(REGEX MATCHALL "\"${field}\": [0-9]+" thread_counts
         "${snap_thread_report}")
  if(NOT seq_counts STREQUAL thread_counts)
    message(FATAL_ERROR
      "cli_smoke: ${field} differs between snapshot backends\n"
      "seq:    ${seq_counts}\nthread: ${thread_counts}")
  endif()
endforeach()

message(STATUS
  "cli_smoke: OK (O0 copied ${o0_elems} elems, O2 copied ${o2_elems}, "
  "seq/thread/proc backends agree, malformed input is diagnosed, "
  "snapshots seal and restore, report at ${report_json})")
