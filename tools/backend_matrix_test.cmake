# CTest script: CLI capacity sweep of the incremental engine's memo
# ring. `fairco2 signal --incremental` must write byte-identical
# output at every --cache-capacity (the cache is an optimization,
# never an input), and the degenerate --cache-capacity 0 request must
# be rejected with exit 2 and a diagnostic instead of constructing a
# cache that cannot hold the live window.

file(MAKE_DIRECTORY ${WORK_DIR})

# A deterministic sawtooth demand day: enough periods for several
# window advances with --window 4 --period-samples 24.
set(demand_csv ${WORK_DIR}/demand.csv)
file(WRITE ${demand_csv} "demand\n")
foreach(i RANGE 0 287)
    math(EXPR level "20 + 7 * (${i} % 13)")
    file(APPEND ${demand_csv} "${level}\n")
endforeach()

set(common_args
    signal --incremental --demand ${demand_csv}
    --pool-grams 1000 --window 4 --period-samples 24 --splits 4,6)

# Reference: the default capacity.
set(reference_csv ${WORK_DIR}/signal_reference.csv)
execute_process(
    COMMAND ${FAIRCO2_BIN} ${common_args} --out ${reference_csv}
    RESULT_VARIABLE reference_rc ERROR_VARIABLE reference_err)
if(NOT reference_rc EQUAL 0)
    message(FATAL_ERROR
            "reference incremental signal failed: ${reference_err}")
endif()

# Every capacity must reproduce the reference bytes exactly. 1 and 3
# evict on every compute, 4 (= W) evicts only the period about to
# slide out, and 5 (= W+1) and up keep the whole window resident.
foreach(capacity 1 3 4 5 256)
    set(out_csv ${WORK_DIR}/signal_variant.csv)
    file(REMOVE ${out_csv})
    execute_process(
        COMMAND ${FAIRCO2_BIN} ${common_args}
                --cache-capacity ${capacity} --out ${out_csv}
        RESULT_VARIABLE variant_rc ERROR_VARIABLE variant_err)
    if(NOT variant_rc EQUAL 0)
        message(FATAL_ERROR
                "cache capacity ${capacity} failed: ${variant_err}")
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                ${reference_csv} ${out_csv}
        RESULT_VARIABLE same_rc)
    if(NOT same_rc EQUAL 0)
        message(FATAL_ERROR
                "cache capacity ${capacity} diverged from the "
                "reference signal bytes")
    endif()
endforeach()

# Degenerate capacity: exit 2 plus a diagnostic naming the flag, for
# zero and negative values.
foreach(bad_capacity 0 -3)
    execute_process(
        COMMAND ${FAIRCO2_BIN} ${common_args}
                --cache-capacity ${bad_capacity}
                --out ${WORK_DIR}/unwritten.csv
        RESULT_VARIABLE bad_rc ERROR_VARIABLE bad_err)
    if(NOT bad_rc EQUAL 2)
        message(FATAL_ERROR
                "--cache-capacity ${bad_capacity} exited "
                "${bad_rc}, expected 2")
    endif()
    if(NOT bad_err MATCHES "cache-capacity")
        message(FATAL_ERROR
                "--cache-capacity ${bad_capacity} diagnostic does "
                "not name the flag: ${bad_err}")
    endif()
endforeach()

message(STATUS "CLI cache-capacity sweep byte-identical OK")
