# Asserts the deepburning CLI's documented exit-code contract:
#   0 — success
#   2 — user-facing error (db::Error: bad flags, unreadable files)
#   3 — internal invariant violation (a DB_CHECK fired)
# Run via: ctest -R cli_exit_codes  (wired up in tests/CMakeLists.txt,
# which passes -DDEEPBURNING=<path to the binary>).
if(NOT DEFINED DEEPBURNING)
  message(FATAL_ERROR "pass -DDEEPBURNING=<path to the deepburning binary>")
endif()

function(expect_exit code)
  execute_process(COMMAND ${DEEPBURNING} ${ARGN}
    RESULT_VARIABLE result OUTPUT_QUIET ERROR_QUIET)
  if(NOT result EQUAL ${code})
    message(FATAL_ERROR
      "deepburning ${ARGN}: expected exit ${code}, got ${result}")
  endif()
endfunction()

expect_exit(0 --help)
expect_exit(2 --model /nonexistent/model.prototxt)       # db::Error
expect_exit(2 --no-such-flag)                            # db::Error
expect_exit(2 serve --zoo no-such-model)                 # db::Error
expect_exit(2 serve --zoo MNIST --admission=bogus)       # db::Error
expect_exit(2 serve --zoo MNIST --faults=bogus-key=1)    # db::Error
expect_exit(2 serve --zoo MNIST --replicas 0)            # db::Error
expect_exit(2 serve --zoo MNIST --router=bogus)          # db::Error
expect_exit(2 serve --zoo MNIST --breaker=bogus-key=1)   # db::Error
expect_exit(2 serve --zoo MNIST --breaker=failures=0)    # db::Error
expect_exit(2 serve --zoo MNIST --breaker=cooldown=1099511627777) # > 2^40
expect_exit(2 serve --zoo MNIST --hedge-after-cycles -1) # db::Error
expect_exit(3 --self-test-internal-error)                # DB_CHECK

# A memory map larger than the board DRAM is a user-facing error.  A
# 3x4Mx4M input into one INNER_PRODUCT needs ~1 PB against the Zynq's
# 2 GB, and Network::Build rejects its 2^31-plus-element input blob
# (exit 2) before the generator, the image or the perf model sees it.
# A 2x32Kx32K input into one output passes Network::Build (exactly 2^31
# input elements and 2^31 weights) but needs an 8 GB map, so the
# generator's mem.capacity check rejects it (exit 2) before the image
# or the perf model ever sees it.
set(huge_dir "${CMAKE_CURRENT_BINARY_DIR}/cli_exit_codes_huge")
file(MAKE_DIRECTORY "${huge_dir}")
foreach(dims "3;4000000;4000000" "2;32768;32768")
  list(GET dims 0 huge_c)
  list(GET dims 1 huge_h)
  list(GET dims 2 huge_w)
  file(WRITE "${huge_dir}/huge.prototxt"
    "name: \"huge\"\ninput: \"data\"\ninput_dim: 1\n"
    "input_dim: ${huge_c}\ninput_dim: ${huge_h}\ninput_dim: ${huge_w}\n"
    "layers { name: \"fc\" type: INNER_PRODUCT bottom: \"data\" "
    "top: \"fc\" inner_product_param { num_output: 1 } }\n")
  execute_process(COMMAND ${DEEPBURNING} --model "${huge_dir}/huge.prototxt"
    --out "${huge_dir}/out" --simulate
    RESULT_VARIABLE huge_result OUTPUT_QUIET ERROR_VARIABLE huge_err)
  if(NOT huge_result EQUAL 2)
    message(FATAL_ERROR "huge ${dims}: expected exit 2, got ${huge_result}")
  endif()
  if(huge_c EQUAL 2 AND NOT huge_err MATCHES "error\\[mem\\.capacity\\]")
    message(FATAL_ERROR
      "huge ${dims}: expected the mem.capacity check, got:\n${huge_err}")
  endif()
endforeach()
file(REMOVE_RECURSE "${huge_dir}")

# Every integer the CLI reads goes through one checked parser: a value
# that is empty, not a whole decimal number, or outside the flag's or
# key's range exits 2 with a one-line diagnostic, never an internal
# error (3), a silently changed value (0) or a runaway run.
function(expect_diagnostic)
  execute_process(COMMAND ${DEEPBURNING} ${ARGN}
    RESULT_VARIABLE result OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT result EQUAL 2)
    message(FATAL_ERROR
      "deepburning ${ARGN}: expected exit 2, got ${result}\n${err}")
  endif()
  if(NOT err MATCHES "^deepburning: [^\n]+\n$")
    message(FATAL_ERROR
      "deepburning ${ARGN}: expected a one-line diagnostic, got:\n${err}")
  endif()
endfunction()

expect_diagnostic(serve --zoo MNIST --requests abc)
expect_diagnostic(serve --zoo MNIST --requests=)  # empty value
expect_diagnostic(serve --zoo MNIST --replicas 3000000000)
expect_diagnostic(serve --zoo MNIST --replicas 65)
expect_diagnostic(tune ANN-0 --jobs 99999999999999999999)
expect_diagnostic(serve --zoo MNIST --breaker failures=2147483648)
expect_diagnostic(serve --zoo MNIST --arrival-gap 9223372036854775807)
expect_diagnostic(serve --zoo MNIST --batch 4x)
expect_diagnostic(serve --zoo MNIST --linger 1.5)
expect_diagnostic(serve --zoo MNIST --queue-capacity -1)
expect_diagnostic(serve --zoo MNIST --faults flips=99999999999)
# serve holds every request's input plus 1 KiB of state until the
# drain, so a request count past the 1 GiB cap exits 2 before the first
# input is built.  Alexnet's 3x227x227 input admits 1733 requests.
expect_diagnostic(serve --zoo MNIST --requests 2147483647)
expect_diagnostic(serve --zoo Alexnet --requests 1734)
expect_exit(0 serve --zoo=MNIST --requests=4)

set(probe_dir "${CMAKE_CURRENT_BINARY_DIR}/cli_exit_codes_probe")
file(MAKE_DIRECTORY "${probe_dir}")
file(WRITE "${probe_dir}/wide.prototxt" "bit_width: 4294967304\n")
expect_diagnostic(verify --zoo MNIST
  --constraint "${probe_dir}/wide.prototxt")
file(WRITE "${probe_dir}/stride.prototxt"
  "name: \"stride\"\ninput: \"data\"\n"
  "input_dim: 1\ninput_dim: 1\ninput_dim: 8\ninput_dim: 8\n"
  "layers { name: \"conv\" type: CONVOLUTION bottom: \"data\" top: \"conv\" "
  "convolution_param { num_output: 2 kernel_size: 3 stride: 1.5 } }\n")
expect_diagnostic(verify --model "${probe_dir}/stride.prototxt")
# A pooling kernel larger than its padded input: directly (4x4 input,
# 5x5 kernel), and after a conv stride so large that the conv output is
# 1x1 and the next pool no longer fits.
file(WRITE "${probe_dir}/pool.prototxt"
  "name: \"pool\"\ninput: \"data\"\n"
  "input_dim: 1\ninput_dim: 1\ninput_dim: 4\ninput_dim: 4\n"
  "layers { name: \"pool\" type: POOLING bottom: \"data\" top: \"pool\" "
  "pooling_param { pool: MAX kernel_size: 5 } }\n")
expect_diagnostic(verify --model "${probe_dir}/pool.prototxt")
foreach(stride 64 2147483648)
  file(WRITE "${probe_dir}/conv_pool.prototxt"
    "name: \"conv_pool\"\ninput: \"data\"\n"
    "input_dim: 1\ninput_dim: 1\ninput_dim: 28\ninput_dim: 28\n"
    "layers { name: \"conv1\" type: CONVOLUTION bottom: \"data\" "
    "top: \"conv1\" convolution_param { num_output: 20 kernel_size: 5 "
    "stride: ${stride} } }\n"
    "layers { name: \"pool1\" type: POOLING bottom: \"conv1\" "
    "top: \"pool1\" pooling_param { pool: MAX kernel_size: 2 stride: 2 } }\n")
  expect_diagnostic(verify --model "${probe_dir}/conv_pool.prototxt")
endforeach()
# Conv and pool geometry is read in [1, 2^31-1] (pad from 0), so a pad
# near 2^62 or a kernel of 2^63-1 cannot overflow shape inference's
# padded extent.
set(geometry_8x8
  "name: \"geometry\"\ninput: \"data\"\n"
  "input_dim: 1\ninput_dim: 1\ninput_dim: 8\ninput_dim: 8\n")
foreach(param
    "convolution_param { num_output: 2 kernel_size: 3 pad: 4611686018427387904 }"
    "convolution_param { num_output: 2 kernel_size: 9223372036854775807 pad: 4611686018427387904 }")
  file(WRITE "${probe_dir}/geometry.prototxt" ${geometry_8x8}
    "layers { name: \"conv\" type: CONVOLUTION bottom: \"data\" "
    "top: \"conv\" ${param} }\n")
  expect_diagnostic(verify --model "${probe_dir}/geometry.prototxt")
endforeach()
file(WRITE "${probe_dir}/geometry.prototxt" ${geometry_8x8}
  "layers { name: \"pool\" type: POOLING bottom: \"data\" top: \"pool\" "
  "pooling_param { pool: MAX kernel_size: 2 pad: 4611686018427387904 } }\n")
expect_diagnostic(verify --model "${probe_dir}/geometry.prototxt")
# No blob or weight tensor may pass 2^31 elements: a conv pad of 2^20
# on the 8x8 input (a 2x2Mx2M output blob, once std::bad_alloc) and
# ANN-0 with fc3 widened to 2^31-1 outputs (an 8 x (2^31-1) weight
# matrix, once ~27 s and 8 GB before exit 2) stop at Network::Build.
file(WRITE "${probe_dir}/geometry.prototxt" ${geometry_8x8}
  "layers { name: \"conv\" type: CONVOLUTION bottom: \"data\" "
  "top: \"conv\" convolution_param { num_output: 2 kernel_size: 3 "
  "pad: 1048576 } }\n")
expect_diagnostic(verify --model "${probe_dir}/geometry.prototxt")
expect_diagnostic(--model "${probe_dir}/geometry.prototxt"
  --out "${probe_dir}/out" --simulate)
file(WRITE "${probe_dir}/ann0_wide.prototxt"
  "name: \"ann0_fft\"\ninput: \"data\"\n"
  "input_dim: 1\ninput_dim: 1\ninput_dim: 1\ninput_dim: 1\n"
  "layers { name: \"fc1\" type: INNER_PRODUCT bottom: \"data\" "
  "top: \"fc1\" inner_product_param { num_output: 8 } }\n"
  "layers { name: \"act1\" type: TANH bottom: \"fc1\" top: \"act1\" }\n"
  "layers { name: \"fc2\" type: INNER_PRODUCT bottom: \"act1\" "
  "top: \"fc2\" inner_product_param { num_output: 8 } }\n"
  "layers { name: \"act2\" type: TANH bottom: \"fc2\" top: \"act2\" }\n"
  "layers { name: \"fc3\" type: INNER_PRODUCT bottom: \"act2\" "
  "top: \"fc3\" inner_product_param { num_output: 2147483647 } }\n")
expect_diagnostic(verify --model "${probe_dir}/ann0_wide.prototxt")
expect_diagnostic(--model "${probe_dir}/ann0_wide.prototxt"
  --out "${probe_dir}/out" --simulate)
file(REMOVE_RECURSE "${probe_dir}")

# Fault counts are bounded (2^20 events per kind), so a huge count is a
# diagnostic, not an allocation failure.
foreach(key stalls crashes transients)
  expect_diagnostic(serve --zoo MNIST --requests 8 --faults ${key}=2147483647)
endforeach()
expect_diagnostic(serve --zoo MNIST --requests 8 --faults stalls=1048577)

# The cluster-resilience flags fail fast (before any generation work)
# with byte-stable error text: two identical invocations emit identical
# stderr bytes.
foreach(bad_flags "--breaker=bogus-key=1" "--hedge-after-cycles;-1")
  foreach(run a b)
    execute_process(
      COMMAND ${DEEPBURNING} serve --zoo MNIST ${bad_flags}
      RESULT_VARIABLE flag_result
      ERROR_VARIABLE flag_err_${run} OUTPUT_QUIET)
    if(NOT flag_result EQUAL 2)
      message(FATAL_ERROR
        "serve ${bad_flags}: expected exit 2, got ${flag_result}")
    endif()
  endforeach()
  if(NOT flag_err_a STREQUAL flag_err_b)
    message(FATAL_ERROR "error text is not byte-stable (${bad_flags}):\n"
      "--- run a ---\n${flag_err_a}\n--- run b ---\n${flag_err_b}")
  endif()
  if(flag_err_a STREQUAL "")
    message(FATAL_ERROR
      "serve ${bad_flags}: expected a diagnostic on stderr")
  endif()
endforeach()

# `deepburning verify`: exit 0 with a clean verdict for a generated
# design, exit 2 when the report carries error diagnostics.  The hidden
# --self-test-break flag applies the shared BreakRule corruption, so the
# CLI path and the analysis_test negatives exercise identical breakage.
expect_exit(0 verify --help)
expect_exit(0 verify --zoo MNIST)
expect_exit(2 verify --zoo no-such-model)                # db::Error
expect_exit(2 verify --self-test-break bogus.rule --zoo MNIST)
foreach(rule
    agu.bounds mem.layout mem.capacity sched.hazard fold.coverage
    buffer.capacity conn.ports lut.domain res.budget)
  expect_exit(2 verify --zoo Cifar --self-test-break ${rule})
endforeach()

# `deepburning verify --rtl`: the rtl.* netlist passes alone.  Every
# error-severity mutation class exits 2; the dead-register class only
# warns, so the design stays legal and the exit code stays 0.  The
# hidden --self-test-break-rtl flag applies the shared BreakRtlRule
# corruption, mirroring the rtl_analysis_test negatives.
expect_exit(0 verify --zoo MNIST --rtl)
expect_exit(2 verify --zoo MNIST --rtl --self-test-break-rtl bogus.class)
foreach(class drive.unbound drive.double width.slice clock.blocking
    comb.cycle)
  expect_exit(2 verify --zoo MNIST --rtl --self-test-break-rtl ${class})
endforeach()
expect_exit(0 verify --zoo MNIST --rtl --self-test-break-rtl dead.reg)

# `deepburning tune`: exit 0 on a successful exploration, exit 2 for a
# malformed model name, --budget, --objective, --sweep or --jobs value
# (all validated before any generator work runs).
expect_exit(0 tune --help)
expect_exit(0 tune ANN-0)
expect_exit(2 tune)                                      # no model
expect_exit(2 tune no-such-model)                        # db::Error
expect_exit(2 tune ANN-0 --budget=huge)                  # db::Error
expect_exit(2 tune ANN-0 --objective=throughput)         # db::Error
expect_exit(2 tune ANN-0 --sweep=warp=9)                 # db::Error
expect_exit(2 tune ANN-0 --sweep=port=24)                # db::Error
expect_exit(2 tune ANN-0 --jobs=0)                       # db::Error
expect_exit(2 tune ANN-0 --jobs=none)                    # db::Error

# Malformed tuning flags fail fast with byte-stable stderr.
foreach(bad_flags "--budget=huge" "--objective=throughput" "--jobs=0")
  foreach(run a b)
    execute_process(
      COMMAND ${DEEPBURNING} tune ANN-0 ${bad_flags}
      RESULT_VARIABLE tune_flag_result
      ERROR_VARIABLE tune_err_${run} OUTPUT_QUIET)
    if(NOT tune_flag_result EQUAL 2)
      message(FATAL_ERROR
        "tune ${bad_flags}: expected exit 2, got ${tune_flag_result}")
    endif()
  endforeach()
  if(NOT tune_err_a STREQUAL tune_err_b)
    message(FATAL_ERROR "tune error text is not byte-stable "
      "(${bad_flags}):\n"
      "--- run a ---\n${tune_err_a}\n--- run b ---\n${tune_err_b}")
  endif()
  if(tune_err_a STREQUAL "")
    message(FATAL_ERROR
      "tune ${bad_flags}: expected a diagnostic on stderr")
  endif()
endforeach()

# The tune report is byte-identical across reruns AND across --jobs
# values, in both text and JSON form — parallelism is a wall-clock knob,
# never an output knob.
foreach(fmt text json)
  set(tune_fmt_flag)
  if(fmt STREQUAL json)
    set(tune_fmt_flag --json)
  endif()
  foreach(run a_1 b_8)
    string(REGEX REPLACE ".*_" "" tune_jobs "${run}")
    execute_process(
      COMMAND ${DEEPBURNING} tune ANN-0 --jobs ${tune_jobs}
              ${tune_fmt_flag}
      RESULT_VARIABLE tune_result
      OUTPUT_VARIABLE tune_${run} ERROR_QUIET)
    if(NOT tune_result EQUAL 0)
      message(FATAL_ERROR
        "tune ANN-0 --jobs ${tune_jobs} (${fmt}): expected exit 0, "
        "got ${tune_result}")
    endif()
  endforeach()
  if(NOT tune_a_1 STREQUAL tune_b_8)
    message(FATAL_ERROR "tune report is not byte-stable across --jobs "
      "(${fmt}):\n"
      "--- jobs 1 ---\n${tune_a_1}\n--- jobs 8 ---\n${tune_b_8}")
  endif()
  if(tune_a_1 STREQUAL "")
    message(FATAL_ERROR "tune ANN-0 (${fmt}): expected a report")
  endif()
endforeach()

# Report rendering is byte-stable: two runs over the same broken design
# emit identical bytes, in both text and JSON form.
foreach(fmt text json)
  set(fmt_flag)
  if(fmt STREQUAL json)
    set(fmt_flag --json)
  endif()
  foreach(run a b)
    execute_process(
      COMMAND ${DEEPBURNING} verify --zoo Cifar
              --self-test-break mem.layout ${fmt_flag}
      RESULT_VARIABLE verify_result
      OUTPUT_VARIABLE verify_${run} ERROR_QUIET)
    if(NOT verify_result EQUAL 2)
      message(FATAL_ERROR
        "verify --self-test-break mem.layout (${fmt}): expected exit 2, "
        "got ${verify_result}")
    endif()
  endforeach()
  if(NOT verify_a STREQUAL verify_b)
    message(FATAL_ERROR "verify report is not byte-stable (${fmt}):\n"
      "--- run a ---\n${verify_a}\n--- run b ---\n${verify_b}")
  endif()
endforeach()

# The rtl.* report (stdout) and the generator's gate diagnostics
# (stderr) are byte-stable too: two runs over the same RTL mutation emit
# identical bytes in text and JSON form.
foreach(fmt text json)
  set(rtl_fmt_flag)
  if(fmt STREQUAL json)
    set(rtl_fmt_flag --json)
  endif()
  foreach(run a b)
    execute_process(
      COMMAND ${DEEPBURNING} verify --zoo MNIST --rtl
              --self-test-break-rtl drive.unbound ${rtl_fmt_flag}
      RESULT_VARIABLE rtl_result
      OUTPUT_VARIABLE rtl_out_${run} ERROR_VARIABLE rtl_err_${run})
    if(NOT rtl_result EQUAL 2)
      message(FATAL_ERROR
        "verify --rtl --self-test-break-rtl drive.unbound (${fmt}): "
        "expected exit 2, got ${rtl_result}")
    endif()
  endforeach()
  if(NOT rtl_out_a STREQUAL rtl_out_b)
    message(FATAL_ERROR "rtl report is not byte-stable (${fmt}):\n"
      "--- run a ---\n${rtl_out_a}\n--- run b ---\n${rtl_out_b}")
  endif()
  if(NOT rtl_err_a STREQUAL rtl_err_b)
    message(FATAL_ERROR "rtl stderr is not byte-stable (${fmt}):\n"
      "--- run a ---\n${rtl_err_a}\n--- run b ---\n${rtl_err_b}")
  endif()
  if(rtl_out_a STREQUAL "")
    message(FATAL_ERROR "verify --rtl (${fmt}): expected a report")
  endif()
endforeach()
