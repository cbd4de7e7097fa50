# CTest case: `manet_detect record` turns a config it cannot run into one
# line on stderr and exit code 1 (the usage text's promise), never an abort
# or a run: "manet_detect record: <reason>" for a config it cannot run, and
# "manet_detect: bad value for --<flag>: '<value>'" for a number it cannot
# read whole or out of range. Run as
#   cmake -DDETECT=<path to manet_detect> -DOUT=<unused log path> -P <this>
set(too_few_nodes --nodes 3)
set(too_few_nodes_says "manet_detect record: need at least 4 nodes")
set(negative_rounds --nodes 8 --liars 2 --rounds -1)
set(negative_rounds_says
    "manet_detect record: --rounds and --idle must not be negative")
set(negative_idle --idle -1)
set(negative_idle_says
    "manet_detect record: --rounds and --idle must not be negative")
set(drop_fraction_above_one
    --attack grayhole --drop-fraction 2 --rounds 2 --idle 0)
set(drop_fraction_above_one_says
    "manet_detect: bad value for --drop-fraction: '2'")
set(drop_fraction_nan --attack grayhole --drop-fraction nan)
set(drop_fraction_nan_says "manet_detect: bad value for --drop-fraction: 'nan'")
set(rounds_not_a_number --rounds abc)
set(rounds_not_a_number_says "manet_detect: bad value for --rounds: 'abc'")
set(nodes_trailing_characters --nodes 12x)
set(nodes_trailing_characters_says
    "manet_detect: bad value for --nodes: '12x'")
set(negative_seed --seed -3)
set(negative_seed_says "manet_detect: bad value for --seed: '-3'")
set(liars_leading_space --liars " 4")
set(liars_leading_space_says "manet_detect: bad value for --liars: ' 4'")
foreach(case too_few_nodes negative_rounds negative_idle
             drop_fraction_above_one drop_fraction_nan rounds_not_a_number
             nodes_trailing_characters negative_seed liars_leading_space)
  execute_process(COMMAND ${DETECT} record --out ${OUT} ${${case}}
                  RESULT_VARIABLE code ERROR_VARIABLE err)
  string(STRIP "${err}" err)
  if(NOT code STREQUAL "1" OR NOT err STREQUAL "${${case}_says}")
    message(FATAL_ERROR "${case}: exit '${code}', stderr '${err}'")
  endif()
endforeach()
