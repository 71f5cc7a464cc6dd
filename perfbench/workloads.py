"""The benchmark's workloads by name."""
import cli_session
import ladder
import streams

WORKLOADS = {
    "exact-ladder": ladder,
    "enum-stream": streams,
    "cli-cache": cli_session,
}
