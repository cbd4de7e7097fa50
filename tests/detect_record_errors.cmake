# CTest case: `manet_detect record` turns a config it cannot run into
# "manet_detect record: <reason>" on stderr and exit code 1 (the usage
# text's promise), never an abort. Run as
#   cmake -DDETECT=<path to manet_detect> -DOUT=<unused log path> -P <this>
set(too_few_nodes --nodes 3)
set(too_few_nodes_says "need at least 4 nodes")
set(negative_rounds --nodes 8 --liars 2 --rounds -1)
set(negative_rounds_says "--rounds and --idle must not be negative")
set(negative_idle --idle -1)
set(negative_idle_says "--rounds and --idle must not be negative")
foreach(case too_few_nodes negative_rounds negative_idle)
  execute_process(COMMAND ${DETECT} record --out ${OUT} ${${case}}
                  RESULT_VARIABLE code ERROR_VARIABLE err)
  string(STRIP "${err}" err)
  if(NOT code STREQUAL "1" OR
     NOT err STREQUAL "manet_detect record: ${${case}_says}")
    message(FATAL_ERROR "${case}: exit '${code}', stderr '${err}'")
  endif()
endforeach()
