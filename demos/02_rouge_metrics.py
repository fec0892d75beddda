"""ROUGE-1/2 and summary-level ROUGE-L, the same scores that weight the
document-document edges.

Run:  python3 demos/02_rouge_metrics.py
"""

from dgsum.corpus import tokenize
from dgsum.rouge import rouge_avg_f1, rouge_l_summary, rouge_n

candidate = "police killed the gunman near the station."
reference = "the gunman was killed by police at the station."

cand_sents = [s.tokens for s in tokenize(candidate)]
ref_sents = [s.tokens for s in tokenize(reference)]
cand_flat = [t for s in cand_sents for t in s]
ref_flat = [t for s in ref_sents for t in s]

for n in (1, 2):
    score = rouge_n(cand_flat, ref_flat, n)
    print(f"ROUGE-{n}: P={score.precision:.3f} R={score.recall:.3f} "
          f"F1={score.f1:.3f}")

# Summary-level ROUGE-L unions LCS hits per reference sentence, so credit
# survives sentence reordering but no token is counted twice.
score = rouge_l_summary(cand_sents, ref_sents)
print(f"ROUGE-L: P={score.precision:.3f} R={score.recall:.3f} F1={score.f1:.3f}")

# Reordering whole sentences does not change the summary-level score:
two_sent = [["the", "storm", "passed"], ["rain", "kept", "falling"]]
reordered = [two_sent[1], two_sent[0]]
print("reordered F1:", rouge_l_summary(reordered, two_sent).f1)

# The document-document edge weight is the mean of the three F1 values.
doc_a = [s.tokens for s in tokenize("A storm hit the coast. Waves flooded town.")]
doc_b = [s.tokens for s in tokenize("The storm neared the coast by evening.")]
print("document edge weight:", round(rouge_avg_f1(doc_a, doc_b), 4))
