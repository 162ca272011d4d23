# CTest script: the CLI's failure contract. Bad input — a defective
# row under the strict policy, a malformed fault plan, a duplicate
# flag, a garbled list value — must exit 2 with a diagnostic, never
# exit 0 with silently wrong numbers and never crash (exit 1). Also
# exercises the fault-injection path end to end: an injected-fault
# run must be deterministic and must differ from the clean run.

file(MAKE_DIRECTORY ${WORK_DIR})

set(demand_csv ${GOLDEN_DIR}/demand.csv)
set(degraded_csv ${GOLDEN_DIR}/demand_degraded.csv)

function(expect_exit_2 label)
    execute_process(COMMAND ${FAIRCO2_BIN} ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
                "${label}: expected exit 2, got ${rc}\n"
                "stdout: ${out}\nstderr: ${err}")
    endif()
    if(err STREQUAL "")
        message(FATAL_ERROR "${label}: exit 2 with no diagnostic")
    endif()
endfunction()

function(expect_ok label)
    execute_process(COMMAND ${FAIRCO2_BIN} ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "${label}: expected exit 0, got ${rc}\n"
                "stdout: ${out}\nstderr: ${err}")
    endif()
endfunction()

# Strict policy (the default): a defective row is fatal with a
# row-level diagnostic.
expect_exit_2("strict bad row"
    signal --demand ${degraded_csv} --pool-grams 5000
    --out ${WORK_DIR}/unused.csv)

# Malformed fault plans.
expect_exit_2("fault-plan out of range"
    signal --demand ${demand_csv} --pool-grams 5000
    --fault-plan drop=2.0 --out ${WORK_DIR}/unused.csv)
expect_exit_2("fault-plan unknown key"
    signal --demand ${demand_csv} --pool-grams 5000
    --fault-plan explode=0.1 --out ${WORK_DIR}/unused.csv)

# Unknown bad-row policy.
expect_exit_2("unknown bad-row policy"
    signal --demand ${demand_csv} --pool-grams 5000
    --on-bad-row=explode --out ${WORK_DIR}/unused.csv)

# Duplicate and malformed flags.
expect_exit_2("duplicate flag"
    signal --demand ${demand_csv} --demand ${demand_csv}
    --pool-grams 5000 --out ${WORK_DIR}/unused.csv)
expect_exit_2("malformed splits"
    signal --demand ${demand_csv} --pool-grams 5000
    --splits 10,,8 --out ${WORK_DIR}/unused.csv)
expect_exit_2("trailing garbage numeric"
    signal --demand ${demand_csv} --pool-grams 5e3x
    --out ${WORK_DIR}/unused.csv)

# Injected faults recover deterministically: same plan, same bytes;
# and the faulted output must actually differ from the clean one.
expect_ok("clean reference"
    signal --demand ${demand_csv} --pool-grams 5000 --splits 4,6
    --out ${WORK_DIR}/clean.csv)
expect_ok("faulted run A"
    signal --demand ${demand_csv} --pool-grams 5000 --splits 4,6
    --fault-plan seed=9,drop=0.1 --on-bad-row=interpolate
    --out ${WORK_DIR}/fault_a.csv)
expect_ok("faulted run B"
    signal --demand ${demand_csv} --pool-grams 5000 --splits 4,6
    --fault-plan seed=9,drop=0.1 --on-bad-row=interpolate
    --out ${WORK_DIR}/fault_b.csv)
expect_ok("faulted run, two threads"
    signal --demand ${demand_csv} --pool-grams 5000 --splits 4,6
    --fault-plan seed=9,drop=0.1 --on-bad-row=interpolate
    --threads 2 --out ${WORK_DIR}/fault_t2.csv)

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    ${WORK_DIR}/fault_a.csv ${WORK_DIR}/fault_b.csv
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fault injection is not deterministic")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    ${WORK_DIR}/fault_a.csv ${WORK_DIR}/fault_t2.csv
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "fault injection depends on the thread count")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    ${WORK_DIR}/fault_a.csv ${WORK_DIR}/clean.csv
    RESULT_VARIABLE rc)
if(rc EQUAL 0)
    message(FATAL_ERROR
            "fault plan seed=9,drop=0.1 injected nothing")
endif()

# Injected faults under the strict policy are fatal like real ones.
expect_exit_2("strict policy vs injected fault"
    signal --demand ${demand_csv} --pool-grams 5000
    --fault-plan seed=9,drop=0.1 --out ${WORK_DIR}/unused.csv)

# `nan=P` poisons values at the ingest boundary, after drop/corrupt and
# before the bad-row policy: on a day of 300 s samples it must change
# the signal under interpolate and be counted in the ingest summary,
# change nothing at P=0, and be fatal under the strict policy.
set(day_csv ${WORK_DIR}/day.csv)
set(day_rows "t,demand\n")
foreach(i RANGE 287)
    math(EXPR v "100 + (${i} * 37) % 23")
    string(APPEND day_rows "${i},${v}\n")
endforeach()
file(WRITE ${day_csv} "${day_rows}")
expect_ok("day clean"
    signal --demand ${day_csv} --pool-grams 5000 --splits 4,6
    --out ${WORK_DIR}/day_clean.csv)
execute_process(COMMAND ${FAIRCO2_BIN}
    signal --demand ${day_csv} --pool-grams 5000 --splits 4,6
    --fault-plan seed=3,nan=0.5 --on-bad-row=interpolate
    --out ${WORK_DIR}/day_nan.csv
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nan=0.5 run: expected exit 0, got ${rc}\n"
                        "stderr: ${err}")
endif()
if(NOT err MATCHES "ingest: [1-9][0-9]* bad of 288 rows \\(0 parse, 0 missing, [1-9][0-9]* non-finite")
    message(FATAL_ERROR
            "nan=0.5 run: the ingest summary does not count the "
            "injected NaNs\nstderr: ${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    ${WORK_DIR}/day_nan.csv ${WORK_DIR}/day_clean.csv
    RESULT_VARIABLE rc)
if(rc EQUAL 0)
    message(FATAL_ERROR "fault plan seed=3,nan=0.5 injected nothing")
endif()
expect_ok("day nan=0"
    signal --demand ${day_csv} --pool-grams 5000 --splits 4,6
    --fault-plan seed=3,nan=0 --on-bad-row=interpolate
    --out ${WORK_DIR}/day_nan0.csv)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    ${WORK_DIR}/day_nan0.csv ${WORK_DIR}/day_clean.csv
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fault plan nan=0 changed the signal")
endif()
expect_exit_2("strict policy vs injected NaN"
    signal --demand ${day_csv} --pool-grams 5000 --splits 4,6
    --fault-plan seed=3,nan=0.5 --out ${WORK_DIR}/unused.csv)

message(STATUS "fairco2 CLI resilience contract OK")
