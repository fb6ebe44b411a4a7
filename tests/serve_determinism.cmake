# Determinism regression for `deepburning serve` (ctest -L differential):
#
#   1. Two invocations with identical flags — same zoo model, same seeded
#      fault campaign, same replica pool — write byte-identical
#      --metrics-out, --trace-out and --timeseries-out files.  Everything the server
#      reports is a pure function of the arrival stream and the seeds;
#      thread interleaving must never leak into an artifact.  Checked
#      under a datapath campaign and under a cluster campaign (route
#      failures, a slow replica, a crash and hangs, with the breaker and
#      hedging on), whose trace and load.replica<n>.health time-series
#      carry the health log the plan derives from its crash and hang
#      windows.
#   2. Replica count is a wall-clock knob only: the invariant serving
#      metrics (requests, completed, batches, dram_bytes) are identical
#      between a 1-replica and a 4-replica pool.
#
# Run via: ctest -R serve_determinism (tests/CMakeLists.txt passes
# -DDEEPBURNING=<path to the binary>).
if(NOT DEFINED DEEPBURNING)
  message(FATAL_ERROR "pass -DDEEPBURNING=<path to the deepburning binary>")
endif()

set(work serve_determinism_work)
file(REMOVE_RECURSE ${work})
file(MAKE_DIRECTORY ${work})

function(run_serve prefix)
  execute_process(COMMAND ${DEEPBURNING} serve ${ARGN}
      --metrics-out ${work}/${prefix}.metrics.json
      --trace-out ${work}/${prefix}.trace.json
      --timeseries-out ${work}/${prefix}.timeseries.json
    RESULT_VARIABLE result OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR
      "deepburning serve ${ARGN}: expected exit 0, got ${result}\n${err}")
  endif()
endfunction()

function(expect_identical a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
      ${work}/${a} ${work}/${b} RESULT_VARIABLE result)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "${a} and ${b} differ — serving is not "
      "deterministic")
  endif()
endfunction()

# --- 1. byte-identical artifacts across identical invocations --------
set(flags --zoo ANN-0 --requests 32 --replicas 2 --batch 4
    --arrival-gap 20 --faults seed=7,flips=40,transients=2,stalls=1)
run_serve(first ${flags})
run_serve(second ${flags})
expect_identical(first.metrics.json second.metrics.json)
expect_identical(first.trace.json second.trace.json)
expect_identical(first.timeseries.json second.timeseries.json)

# The cluster campaign must actually route around failures, open the
# breaker, hedge and log health transitions (suspect, down, recovering
# and healthy), or the comparison proves nothing about those paths.
set(flags --zoo MNIST --requests 400 --replicas 2 --batch 4
    --arrival-gap 1113
    --faults seed=13,crashes=1,hangs=2,slow-replicas=1,route-fails=3,span=200
    --breaker failures=1 --hedge-after-cycles 6009)
run_serve(cluster_first ${flags})
run_serve(cluster_second ${flags})
expect_identical(cluster_first.metrics.json cluster_second.metrics.json)
expect_identical(cluster_first.trace.json cluster_second.trace.json)
expect_identical(cluster_first.timeseries.json
    cluster_second.timeseries.json)
file(READ ${work}/cluster_first.metrics.json cluster_metrics)
foreach(metric route_failures slow_replicas crashes hangs breaker_opens
    hedges transitions)
  string(REGEX MATCH "\"cluster\\.health\\.${metric}\": *[1-9]" fired
    "${cluster_metrics}")
  if(fired STREQUAL "")
    message(FATAL_ERROR "the cluster campaign reports no ${metric}")
  endif()
endforeach()

# --- 2. invariant metric subset across replica counts ----------------
# (No fault campaign here: the campaign is sliced per replica, so its
# per-replica records are legitimately pool-shaped.  serve.dram_bytes is
# also legitimately pool-shaped — every replica pays its own cold-weight
# fetch before its weights are resident — so it is not in the subset.)
set(flags --zoo ANN-0 --requests 32 --batch 4 --arrival-gap 20)
run_serve(r1 ${flags} --replicas 1)
run_serve(r4 ${flags} --replicas 4)
file(READ ${work}/r1.metrics.json r1_metrics)
file(READ ${work}/r4.metrics.json r4_metrics)
foreach(metric serve.requests serve.completed serve.batches)
  string(REGEX MATCH "\"${metric}\": *[0-9]+" r1_value "${r1_metrics}")
  string(REGEX MATCH "\"${metric}\": *[0-9]+" r4_value "${r4_metrics}")
  if(r1_value STREQUAL "")
    message(FATAL_ERROR "metric ${metric} missing from r1.metrics.json")
  endif()
  if(NOT r1_value STREQUAL r4_value)
    message(FATAL_ERROR "metric ${metric} depends on the replica count: "
      "1 replica reports '${r1_value}', 4 replicas report '${r4_value}'")
  endif()
endforeach()

file(REMOVE_RECURSE ${work})
