# End-to-end check of the fleet-telemetry CLI surfaces (ctest -P script).
#
# Drives `extractocol` over two healthy corpus apps plus a poisoned input
# and asserts:
#
#   * --run-manifest writes the JSON ledger: schema tag, one record per
#     input (the poisoned one as an "error" outcome), fleet aggregates;
#   * the manifest's metrics.counters (the CLI's run-scope counts) are
#     identical at --jobs 1 and --jobs 2, and count every parsed input;
#   * --metrics-prom writes Prometheus text exposition with sanitized
#     (dot-free) names;
#   * --progress reports on stderr only — stdout is byte-identical with and
#     without it;
#   * --memtrack at --jobs 1 attributes a non-zero per-app peak_bytes
#     (skipped with a warning on libcs without malloc_usable_size);
#   * --profile under a step budget that cuts mid-stage prints the same
#     stderr at --jobs 1 and --jobs 8.
#
# Expected definitions: EXTRACTOCOL, MAKE_CORPUS, WORK_DIR.

foreach(var EXTRACTOCOL MAKE_CORPUS WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${MAKE_CORPUS}" "${WORK_DIR}/corpus"
  RESULT_VARIABLE corpus_rc
  OUTPUT_QUIET)
if(NOT corpus_rc EQUAL 0)
  message(FATAL_ERROR "make_corpus failed: ${corpus_rc}")
endif()

set(healthy_a "${WORK_DIR}/corpus/blippex.xapk")
set(healthy_b "${WORK_DIR}/corpus/ifixit.xapk")
file(WRITE "${WORK_DIR}/poisoned.xapk" "not an xapk at all\n")
set(inputs "${healthy_a}" "${WORK_DIR}/poisoned.xapk" "${healthy_b}")

set(manifest "${WORK_DIR}/manifest.json")
set(prom "${WORK_DIR}/metrics.prom")

execute_process(
  COMMAND "${EXTRACTOCOL}" --jobs 2 --progress
          --run-manifest "${manifest}" --metrics-prom "${prom}" ${inputs}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE with_progress_out
  ERROR_VARIABLE with_progress_err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "batch with a poisoned input must exit 1, got ${rc}")
endif()

# --- run manifest ----------------------------------------------------------
if(NOT EXISTS "${manifest}")
  message(FATAL_ERROR "--run-manifest did not write ${manifest}")
endif()
file(READ "${manifest}" manifest_text)
# Schema v1-or-v2 compat: consumers of this ledger key off the prefix; v2
# only adds optional "accuracy" blocks.
if(NOT manifest_text MATCHES "extractocol\\.run_manifest/v[12]")
  message(FATAL_ERROR "run manifest missing schema tag:\n${manifest_text}")
endif()
foreach(needle
    "\"fleet\""
    "\"apps_per_second\""
    "\"latency_ms\""
    "\"outcome\": \"error\""
    "poisoned.xapk"
    "blippex.xapk"
    "ifixit.xapk")
  string(FIND "${manifest_text}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "run manifest missing ${needle}:\n${manifest_text}")
  endif()
endforeach()

# --- manifest counters: exact at any --jobs --------------------------------
set(manifest_jobs1 "${WORK_DIR}/manifest_jobs1.json")
execute_process(
  COMMAND "${EXTRACTOCOL}" --jobs 1 --run-manifest "${manifest_jobs1}" ${inputs}
  RESULT_VARIABLE rc_jobs1
  OUTPUT_QUIET
  ERROR_QUIET)
if(NOT rc_jobs1 EQUAL 1)
  message(FATAL_ERROR "--jobs 1 batch exit code diverged: ${rc_jobs1}")
endif()
file(READ "${manifest_jobs1}" manifest_jobs1_text)
string(JSON counters_jobs1 GET "${manifest_jobs1_text}" metrics counters)
string(JSON counters_jobs2 GET "${manifest_text}" metrics counters)
if(NOT counters_jobs1 STREQUAL counters_jobs2)
  message(FATAL_ERROR "manifest counters differ between --jobs 1 and --jobs 2:\n"
                      "${counters_jobs1}\n--- vs ---\n${counters_jobs2}")
endif()
# Two of the three inputs parse; the poisoned one does not.
string(JSON programs_parsed ERROR_VARIABLE parsed_error
       GET "${manifest_text}" metrics counters xapk_programs_parsed)
if(NOT programs_parsed EQUAL 2)
  message(FATAL_ERROR "manifest xapk_programs_parsed must be 2, got "
                      "'${programs_parsed}' ${parsed_error}")
endif()

# --- prometheus export -----------------------------------------------------
if(NOT EXISTS "${prom}")
  message(FATAL_ERROR "--metrics-prom did not write ${prom}")
endif()
file(READ "${prom}" prom_text)
string(FIND "${prom_text}" "# TYPE" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "prometheus export has no TYPE lines:\n${prom_text}")
endif()
# The poisoned input guarantees this counter; its name must be sanitized.
string(FIND "${prom_text}" "isolation_contained_errors 1" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "expected sanitized counter sample:\n${prom_text}")
endif()
string(FIND "${prom_text}" "isolation.contained_errors" pos)
if(NOT pos EQUAL -1)
  message(FATAL_ERROR "dotted name leaked into the prometheus export")
endif()

# --- --progress: stderr only, stdout untouched -----------------------------
string(FIND "${with_progress_err}" "apps, ETA" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "--progress must report on stderr:\n${with_progress_err}")
endif()
execute_process(
  COMMAND "${EXTRACTOCOL}" --jobs 2 ${inputs}
  RESULT_VARIABLE rc_plain
  OUTPUT_VARIABLE plain_out
  ERROR_QUIET)
if(NOT rc_plain EQUAL 1)
  message(FATAL_ERROR "plain batch exit code diverged: ${rc_plain}")
endif()
if(NOT plain_out STREQUAL with_progress_out)
  message(FATAL_ERROR "--progress changed stdout")
endif()

# --- --memtrack: per-app peak attribution at --jobs 1 ----------------------
execute_process(
  COMMAND "${EXTRACTOCOL}" --jobs 1 --memtrack
          --run-manifest "${WORK_DIR}/manifest_mem.json" ${inputs}
  RESULT_VARIABLE rc_mem
  OUTPUT_QUIET
  ERROR_VARIABLE mem_err)
if(NOT rc_mem EQUAL 1)
  message(FATAL_ERROR "--memtrack batch exit code diverged: ${rc_mem}")
endif()
string(FIND "${mem_err}" "--memtrack unavailable" pos)
if(NOT pos EQUAL -1)
  message(STATUS "cli telemetry: memtrack unavailable here, peak check skipped")
else()
  file(READ "${WORK_DIR}/manifest_mem.json" mem_manifest)
  if(NOT mem_manifest MATCHES "\"peak_bytes\": [1-9]")
    message(FATAL_ERROR "expected a non-zero peak_bytes record:\n${mem_manifest}")
  endif()
endif()

# --- --eval: schema v2 accuracy blocks in the manifest ---------------------
set(manifest_eval "${WORK_DIR}/manifest_eval.json")
set(eval_sidecar "${WORK_DIR}/eval.json")
execute_process(
  COMMAND "${EXTRACTOCOL}" --jobs 2 --eval --eval-out "${eval_sidecar}"
          --run-manifest "${manifest_eval}" ${inputs}
  RESULT_VARIABLE rc_eval
  OUTPUT_QUIET
  ERROR_VARIABLE eval_err)
if(NOT rc_eval EQUAL 1)
  message(FATAL_ERROR "--eval batch exit code diverged: ${rc_eval}")
endif()
string(FIND "${eval_err}" "Accuracy observatory" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "--eval must print the accuracy table on stderr:\n${eval_err}")
endif()
file(READ "${manifest_eval}" eval_manifest)
if(NOT eval_manifest MATCHES "extractocol\\.run_manifest/v2")
  message(FATAL_ERROR "--eval manifest must carry schema v2:\n${eval_manifest}")
endif()
foreach(needle
    "\"accuracy\""
    "\"recall\""
    "\"uri_exactness\""
    "\"gt_endpoints\"")
  string(FIND "${eval_manifest}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "--eval manifest missing ${needle}:\n${eval_manifest}")
  endif()
endforeach()
# The poisoned input resolves to no corpus app, so it rides as unscored.
string(FIND "${eval_manifest}" "\"scored\": false" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "poisoned input must appear unscored:\n${eval_manifest}")
endif()
if(NOT EXISTS "${eval_sidecar}")
  message(FATAL_ERROR "--eval-out did not write ${eval_sidecar}")
endif()
file(READ "${eval_sidecar}" eval_text)
foreach(needle "extractocol.eval/v1" "\"fleet\"" "\"triage\"" "\"counts\"")
  string(FIND "${eval_text}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "eval sidecar missing ${needle}:\n${eval_text}")
  endif()
endforeach()

# --- --profile under a budget cut: identical stderr at any --jobs ----------
# Pinterest exhausts 2,000 steps inside a stage, so at --jobs 8 units past
# the cut may run; none of their rows may reach the table.
foreach(jobs 1 8)
  execute_process(
    COMMAND "${EXTRACTOCOL}" --jobs ${jobs} --max-steps 2000 --profile
            "${WORK_DIR}/corpus/pinterest.xapk"
    RESULT_VARIABLE rc_profile
    OUTPUT_QUIET
    ERROR_VARIABLE profile_err_${jobs})
  if(NOT rc_profile EQUAL 0)
    message(FATAL_ERROR "--max-steps --profile at --jobs ${jobs} exited ${rc_profile}")
  endif()
endforeach()
string(FIND "${profile_err_1}" "profile: hot app methods" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "--profile printed no method table:\n${profile_err_1}")
endif()
if(NOT profile_err_1 STREQUAL profile_err_8)
  message(FATAL_ERROR "--profile stderr differs between --jobs 1 and --jobs 8:\n"
                      "${profile_err_1}\n--- vs ---\n${profile_err_8}")
endif()

message(STATUS "cli telemetry: all checks passed")
