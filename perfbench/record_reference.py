"""Record the canary labels that label_match compares against.

    python3 perfbench/record_reference.py

Runs every workload's canary (inputs from DEFAULT_SEED) at both profiles
and overwrites perfbench/reference.json. Run it only on a commit whose
outputs are the accepted reference.
"""

import json
import os
import shutil

from workloads import DEFAULT_SEED, PROFILES, REFERENCE, ROOT, WORKLOADS


def main():
    doc = {}
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for profile, sizes in PROFILES.items():
            doc[profile] = {}
            for name, cls in WORKLOADS.items():
                wl = cls(sizes, work)
                wl.setup(DEFAULT_SEED)
                labels = wl.canary()
                doc[profile][name] = ["".join(str(int(v)) for v in seq) for seq in labels]
                print(f"{profile} {name}: {sum(len(s) for s in doc[profile][name])} labels")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
