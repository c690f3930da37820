# Run a command under a time limit and print its CPU time.
#
#   bash .github/timed.sh LABEL SECONDS EXPECTED COMMAND...
#
# Prints "LABEL: U s user + S s system CPU, R s wall" on stderr.  Exits 1
# when COMMAND is still running after SECONDS (naming EXPECTED, its usual
# CPU time) or exits nonzero; the messages go to stderr, so a redirection
# of this script's stdout holds COMMAND's output alone.
label=$1 limit=$2 expected=$3
shift 3
code=0
TIMEFORMAT="$label: %U s user + %S s system CPU, %R s wall"
time { timeout "$limit" "$@" || code=$?; }
if [ "$code" -eq 124 ]; then
  echo "$label did not finish within $limit s (about $expected CPU expected)" >&2; exit 1
fi
[ "$code" -eq 0 ] || { echo "$label exited $code" >&2; exit 1; }
