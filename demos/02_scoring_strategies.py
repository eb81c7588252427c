"""The four pointwise scoring strategies, demonstrated on a mock backend.

Each strategy turns a (query, passage) pair into a relevance probability,
all through the one scorer ``score_pair``:

  direct            decision token read immediately
  reason            generate a think block, then decide
  forced_no_reason  think block pre-filled, decision forced
  self_consistency  n sampled think blocks, scores averaged

Run:  python demos/02_scoring_strategies.py
"""

from reranklab import (
    DEFAULT_TEMPLATE,
    MockBackend,
    Passage,
    PromptMode,
    Query,
    RerankStrategy,
    StrategyKind,
    assemble_prompt,
    score_pair,
)
from reranklab.prompts import decision_prompt

query = Query("q1", "how to help a jammed finger")
passage = Passage("p1", "A broken finger is often more painful than a jammed finger, "
                        "although both may be treated using a splint.")

# --- what the model actually sees ----------------------------------------
print("=== direct prompt (ends at the assistant turn) ===")
print(assemble_prompt(DEFAULT_TEMPLATE, query.text, passage.text, PromptMode.DIRECT))
print("=== forced_no_reason's read (think block pre-filled and closed) ===")
open_prompt = assemble_prompt(DEFAULT_TEMPLATE, query.text, passage.text, PromptMode.OPEN_THINK)
print(decision_prompt(DEFAULT_TEMPLATE, open_prompt, DEFAULT_TEMPLATE.forced_think_text))

# --- a mock that mimics the typical behaviours ----------------------------
# direct prompts get a moderate, calibrated-looking score; once a generated
# think block concludes "true", the conditioned decision saturates, with
# hedged chains ("somewhat relevant") staying a little softer
def score_fn(prompt):
    if "it is clearly relevant" in prompt:
        return (6.9, 0.0)     # confident chain: nearly certain
    if "it is somewhat relevant" in prompt:
        return (1.0, 0.0)     # hedged chain: softer
    if "Okay, I have finished thinking." in prompt:
        return (1.45, 0.0)    # forced block: confident but not saturated
    return (-0.5, 0.0)        # direct read: leans negative, keeps nuance


def generate_fn(prompt, seed):
    hedge = "somewhat" if (seed or 0) % 2 else "clearly"
    return (f"Okay, the passage does mention a splint, so it is {hedge} "
            f"relevant. The answer is true.</think>")


mock = MockBackend(score_fn=score_fn, generate_fn=generate_fn)

print("=== scores ===")
scored = {}
for kind in StrategyKind:
    # as `reranklab rerank --samples 8 --max-reasoning-tokens 128` resolves each strategy:
    # 8 samples for self_consistency only, greedy sampling except for self_consistency
    strategy, sampling = RerankStrategy.resolve(kind, samples=8, max_tokens=128)
    pair = score_pair(mock, DEFAULT_TEMPLATE, strategy, query, passage, sampling, base_seed=0)
    scored[kind] = pair
    detail = ""
    if kind is StrategyKind.REASON:
        detail = f"   ({pair.traces[0].token_count} reasoning tokens)"
    if kind is StrategyKind.SELF_CONSISTENCY:
        detail = f"   (mean of {[round(s, 3) for s in pair.per_sample_scores]})"
    print(f"{kind.value:<17} R = {pair.score:.3f}{detail}")

print("\nreasoning trace from the reason strategy:")
print(" ", scored[StrategyKind.REASON].traces[0].text)
