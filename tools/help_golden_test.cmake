# CTest script: the CLI's --help output is part of the documented
# contract. tests/golden/help.txt pins the exact bytes of the
# top-level usage plus every subcommand's flag listing; README's flag
# reference is reconciled against this fixture, so any flag added,
# removed, or reworded without a docs pass fails this diff.
#
# Regenerate after an intentional change:
#   { fairco2 --help; echo "===="; \
#     for c in signal bill forecast run serve; do \
#       fairco2 $c --help; echo "===="; done; } \
#     > tests/golden/help.txt

file(MAKE_DIRECTORY ${WORK_DIR})
set(produced ${WORK_DIR}/help.txt)
file(WRITE ${produced} "")

function(append_help)
    execute_process(COMMAND ${FAIRCO2_BIN} ${ARGN} --help
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "fairco2 ${ARGN} --help exited ${rc}: ${err}")
    endif()
    file(APPEND ${produced} "${out}====\n")
endfunction()

# Top level prints the command list without a ==== of its own.
execute_process(COMMAND ${FAIRCO2_BIN} --help
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fairco2 --help exited ${rc}: ${err}")
endif()
file(WRITE ${produced} "${out}====\n")

foreach(cmd signal bill forecast run serve)
    append_help(${cmd})
endforeach()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${produced} ${GOLDEN_DIR}/help.txt
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "fairco2 --help drifted from tests/golden/help.txt; "
            "update the fixture AND the README flag table together "
            "(produced: ${produced})")
endif()

message(STATUS "fairco2 --help matches the golden fixture")
