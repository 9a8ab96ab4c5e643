"""peerchain round benchmark: workloads, runner and tracing."""
