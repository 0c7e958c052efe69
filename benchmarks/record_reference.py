"""Record the losses that the train workload's reference check compares with.

    python3 benchmarks/record_reference.py

Run it only on a commit whose training is trusted: it rewrites
train_reference.json next to this file with the dropout-free check call's
[train_loss, valid_loss] for every check seed.
"""

import json
import os
import sys
from pathlib import Path

from run import HERE, LOSS_RTOL, THREAD_ENV


def main():
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import inputs

    lines = []
    for seed in range(inputs.CHECK_SEEDS):
        losses = inputs.check_call_losses(seed)
        print(seed, losses, flush=True)
        lines.append(f'  "{seed}": {json.dumps(losses)}')
    Path(HERE / "train_reference.json").write_text(
        f'{{"rtol": {LOSS_RTOL}, "losses": {{\n' + ",\n".join(lines) + "\n}}\n")


if __name__ == "__main__":
    main()
