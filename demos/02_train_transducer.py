"""Train a small attention transducer on the built-in rule-based benchmark
and watch it learn the rewrite rules."""

from cogtrans.data_io import split_dataset
from cogtrans.models import ModelConfig, transduce_batch
from cogtrans.synthetic import generate_pairs, oracle_transduce
from cogtrans.training import OptimizerSpec, TrainConfig, evaluate_model, train

pairs = generate_pairs(seed=1, n=1000)
split = split_dataset(pairs, seed=1)
print(f"{len(split.train)} train / {len(split.validation)} validation / "
      f"{len(split.test)} test pairs")

cfg = ModelConfig(architecture="am", hidden_dim=32, embed_dim=24,
                  max_decode_len=16)
tc = TrainConfig(batch_size=20, max_epochs=40, patience=40, seed=1,
                 metrics_every=0)
result = train(cfg, tc, OptimizerSpec("adam", lr=2e-3), split)
print(f"trained {len(result.history)} epochs; "
      f"best validation loss {result.best.val_loss:.4f}")

scores = evaluate_model(result.model, split.test)
print("held-out scores:",
      " ".join(f"{k}={v:.2f}" for k, v in sorted(scores.items())))

words = ["yambo", "hanA", "aMbc"]
for word, got in zip(words, transduce_batch(result.model, words)):
    print(f"{word} -> {got.word}   (rule target: {oracle_transduce(word)})")
