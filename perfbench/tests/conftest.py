import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)
