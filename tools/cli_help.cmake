# CLI usage-surface check (ctest -P script).
#
#   * `--help` exits 0 and prints the option list to stdout;
#   * every flag the parser accepts appears in that list (the usage text is
#     the authoritative surface — a flag added to main() without a help line
#     fails here);
#   * no arguments and an unknown option both exit 2 with usage on stderr;
#   * --serve refuses --profile, --profile-out, --run-manifest, --eval and
#     --eval-out (exit 2, one error line).
#
# Expected definitions: EXTRACTOCOL.

if(NOT DEFINED EXTRACTOCOL)
  message(FATAL_ERROR "missing -DEXTRACTOCOL=...")
endif()

execute_process(
  COMMAND "${EXTRACTOCOL}" --help
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE help_out
  ERROR_VARIABLE help_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--help must exit 0, got ${rc}")
endif()
if(help_out STREQUAL "")
  message(FATAL_ERROR "--help must print to stdout")
endif()

set(flags
  --json --audit --explain
  --scope --no-async-heuristic --async-hops --no-deobfuscation --max-steps
  --jobs --keep-going --fail-fast --progress
  --cache-dir --cache-max-bytes --serve --connect
  --status --metrics-live --journal --journal-max-bytes --slow-ms
  --stats --metrics --metrics-prom --run-manifest --memtrack --trace
  --profile --profile-out --flamegraph
  --eval --eval-out
  --verbose --help)
foreach(flag IN LISTS flags)
  string(FIND "${help_out}" "${flag}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "--help output missing ${flag}:\n${help_out}")
  endif()
endforeach()

execute_process(
  COMMAND "${EXTRACTOCOL}"
  RESULT_VARIABLE rc_noargs
  OUTPUT_VARIABLE noargs_out
  ERROR_VARIABLE noargs_err)
if(NOT rc_noargs EQUAL 2)
  message(FATAL_ERROR "no arguments must exit 2, got ${rc_noargs}")
endif()
string(FIND "${noargs_err}" "usage:" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "argument errors must print usage to stderr")
endif()

execute_process(
  COMMAND "${EXTRACTOCOL}" --no-such-flag x.xapk
  RESULT_VARIABLE rc_unknown
  OUTPUT_QUIET
  ERROR_VARIABLE unknown_err)
if(NOT rc_unknown EQUAL 2)
  message(FATAL_ERROR "unknown option must exit 2, got ${rc_unknown}")
endif()
string(FIND "${unknown_err}" "unknown option" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "unknown option must be named on stderr:\n${unknown_err}")
endif()

# Value-taking options must name themselves when the value is missing.
foreach(value_flag --profile-out --flamegraph --eval-out
                   --cache-dir --cache-max-bytes --serve --connect
                   --journal --journal-max-bytes --slow-ms)
  execute_process(
    COMMAND "${EXTRACTOCOL}" ${value_flag}
    RESULT_VARIABLE rc_novalue
    OUTPUT_QUIET
    ERROR_VARIABLE novalue_err)
  if(NOT rc_novalue EQUAL 2)
    message(FATAL_ERROR "${value_flag} without a value must exit 2, got ${rc_novalue}")
  endif()
  string(FIND "${novalue_err}" "option '${value_flag}' requires a value" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "${value_flag} must report its missing value:\n${novalue_err}")
  endif()
endforeach()

# --serve refuses the batch-run outputs it would otherwise ignore. The
# socket's directory does not exist, so a daemon that wrongly started
# would fail to bind and exit at once instead of serving.
foreach(batch_flag --profile "--profile-out;p.json" "--run-manifest;m.json" --eval
                   "--eval-out;e.json")
  execute_process(
    COMMAND "${EXTRACTOCOL}" --serve /nonexistent-extractocol-dir/x.sock ${batch_flag}
    RESULT_VARIABLE rc_serve
    OUTPUT_QUIET
    ERROR_VARIABLE serve_err
    TIMEOUT 20)
  if(NOT rc_serve EQUAL 2)
    message(FATAL_ERROR "--serve ${batch_flag} must exit 2, got ${rc_serve}")
  endif()
  string(FIND "${serve_err}" "do not apply to --serve" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "--serve ${batch_flag} must be refused:\n${serve_err}")
  endif()
endforeach()

message(STATUS "cli help: all checks passed")
