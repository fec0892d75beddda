"""Windowed encoder attention with global delimiters, and beam search.

Run:  python3 demos/04_attention_and_beam.py
"""

import numpy as np

import dgsum.numeric as nm
from dgsum.text_model import beam_search, causal_mask

# The encoder is local: position i sees i +- window. Delimiter positions are
# global: they see everything and everything sees them, so sentence and
# document rows pool their whole span. nm.band_attention is dense attention
# per block of 32 rows, over the keys within `window` of the block plus the
# global keys, and gives the global rows a dense softmax over every key.
n, window = 12, 2
global_positions = [0, 6]  # pretend DOC_SEP at 0, SENT_SEP at 6
# The kernel takes query, key and value rows and a head count. Zero queries
# and keys give every allowed key the same score; identity values in one head
# make each output row that row's attention weights.
zeros = np.zeros((n, n))
weights = nm.band_attention(zeros, zeros, np.eye(n), 1, window, global_positions).data

print("encoder attention pattern (o = allowed, . = blocked):")
for i in range(n):
    row = "".join("o" if weights[i, j] > 0.0 else "." for j in range(n))
    tag = "  <- global" if i in global_positions else ""
    print(f"  {i:2d} {row}{tag}")

print("\ndecoder causal mask (rows attend only to the past):")
cm = causal_mask(6)
for i in range(6):
    print("  " + "".join("o" if cm[i, j] == 0.0 else "." for j in range(6)))

# Beam search over a rigged 3-token vocabulary. Greedy grabs token 1 first;
# the best length-normalized sequence starts with token 2, which a width-2
# beam recovers.
EOS = 0
table = {
    (9,): [0.01, 0.54, 0.45],
    (9, 1): [0.10, 0.45, 0.45],
    (9, 2): [0.02, 0.08, 0.90],
    (9, 2, 2): [0.97, 0.02, 0.01],
}


def step(prefixes):
    # beam_search scores every live hypothesis in one call: one row each
    probs = [table.get(tuple(p), [1 / 3] * 3) for p in prefixes]
    return np.log(np.asarray(probs))


for width in (1, 2):
    out = beam_search(step, bos=9, eos=EOS, beam_width=width, max_len=3)
    print(f"\nbeam width {width}: {out}")
print("(width 1 is exactly greedy; width 2 finds the better start)")
