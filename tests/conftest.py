import os
import sys
from pathlib import Path

# One BLAS thread, as bench/run.py pins it; set before numpy is first imported,
# so the wall-clock bounds do not hang on how busy the machine's other cores are.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# Make test-local helper modules (gradcheck, reference_metrics) importable.
sys.path.insert(0, str(Path(__file__).parent))
