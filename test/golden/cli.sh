#!/bin/sh
# Golden CLI transcript: every per-system subcommand of timedmap on all
# eight systems, each with at least one non-default parameter.  The
# output is diffed against cli.expected; any change in what the CLI
# prints for a system shows up as a diff.
#
# Usage: sh cli.sh path/to/timedmap.exe
#
# The widening mode changes zone counts, so the transcript pins the
# default (LU) mode whatever the caller's environment says.
unset TM_NO_LU
bin=$1

run() {
  echo "\$ timedmap $*"
  "$bin" "$@" 2>&1
  echo "[exit $?]"
}

each() {
  sys_args=$1
  for cmd in verify "margin --json" simulate check map exact progress; do
    case $cmd in
      check) run check --runs 3 --steps 20 $sys_args ;;
      *) run $cmd $sys_args ;;
    esac
  done
}

each "-S rm -k 2"
each "-S im -k 4"
each "-S relay -n 3"
each "-S fischer -n 3 -b 3"
each "-S rg --d2 5"
each "-S ring -n 3 --d2 3"
each "-S fd -m 3"
each "-S two -k 5"

# parameter clamps and per-subcommand defaults
run verify -S fischer -n 1
run margin --json -S fd
run simulate -S rm --strategy eager --steps 10
run simulate -S relay --strategy lazy --steps 10 --seed 7
