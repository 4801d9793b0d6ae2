"""Workload inputs, hang probes and the outputs expected from them.

Pure data, importable without cycloclass. The expected values were recorded
from the program as it stood when the benchmark was defined; the h- table is
checked against the package's own bundled dataset instead.
"""

# The 16 tabulated prime-power conductors of the bundled dataset plus 572.
HMINUS_TABLE = (59, 71, 79, 83, 103, 107, 121, 127, 131, 139, 151, 163, 167, 179, 191, 199, 572)

# Each workload: its inputs, and CLI argument lists that hang at the commit
# that defined the benchmark (each runs in its own interpreter and is killed
# after PROBE_BUDGET_S).
WORKLOADS = {
    "hminus-table": {"inputs": [str(u) for u in HMINUS_TABLE], "probes": []},
    "hminus-norms": {
        "inputs": ["401", "1009"],
        "probes": [["hminus", "401", "--time-limit", "1"]],
    },
    "audit-paper": {"inputs": ["verify-paper"], "probes": []},
    "subfields-lattice": {"inputs": ["571", "480"], "probes": [["subfields", "9907"]]},
}

PROBE_BUDGET_S = 5.0

# u -> (decimal digits of h-(u), sha256 of its decimal string)
HMINUS_DIGESTS = {
    "401": (104, "7e04bc620637d61c3f3f847d7f847d8958e9c62db3fc2485feacb7ebc5ea6488"),
    "1009": (358, "aa5cc30f460e7b5fb288d1d96ca5638303d4153d9f7e72f7b129957f7c3c85ef"),
}

# u -> (number of subfields, sha256 of the "degree conductor |disc|" rows of
# `cycloclass subfields u`, one row per line)
SUBFIELD_DIGESTS = {
    "571": (16, "88f0a3a083c57446155bbfc86a4e4a7cedaa63c93aefbf3a2fb8b9e5afafc30f"),
    "480": (380, "d2d282b2cf0a0ba64c34dc7589788d57e614327f99271c08c6638a28c9baee03"),
}

# Summary of `cycloclass verify-paper --format structured` on the bundled data.
AUDIT_SUMMARY = {"entries": 346, "consistent": 157, "inconclusive": 189, "violations": 0}
