"""Enrichment-model stage: the lifecycle slot where the reference calls
its LLM (``enhanced_extractor.py:843-864``: prompt → model → JSON
repair → metadata), re-expressed as an actor-pool ``map_batches``.

The backend is pluggable through ``functions.llm_client`` (the §2.10
extension surface); the client is built ONCE per actor in ``__init__``
(the T1 per-worker-state rule — a real backend holds an HTTP session
or loaded weights there).  Model output flows through the same robust
JSON repair as the reference (M10): parse failures become error-as-data
columns, never exceptions (M11)."""

from __future__ import annotations

import pandas as pd

from bb_ocr_ray.functions.jsonrepair import repair_json
from bb_ocr_ray.functions.templates import assemble_prompt


class EnrichStage:
    """Stateful enrichment worker (one LLM client per actor-pool slot).

    Every backend call goes through ``RetryingClient`` (reference
    ``enhanced_extractor.py:843-864``: 3 attempts, linear backoff) —
    transport failures become ``enrich_error`` rows with
    ``enrich_attempts`` recording the cost; the stage NEVER raises
    (M11 dead-letter semantics), so one flaky provider call cannot
    kill a 100-TB job's task."""

    def __init__(self, backend: str = "fake", model: str = "fake-model",
                 max_attempts: int = 3, backoff_seconds: float = 1.0,
                 sleep=None, client_factory=None):
        from bb_ocr_ray.functions.llm_client import (RetryingClient,
                                                     create_llm_client)

        # ``client_factory`` (a zero-arg callable, cloudpickled into
        # the actor) bypasses the name registry: actor processes
        # import this module fresh, so a backend registered only on
        # the driver would not resolve there — a real GPU model class
        # ships the same way (weights load HERE, once per actor, per
        # SURVEY §2.3 T5 / reference model_setup.py:19-71)
        inner = (client_factory() if client_factory is not None
                 else create_llm_client(backend))
        self.client = RetryingClient(inner,
                                     max_attempts=max_attempts,
                                     backoff_seconds=backoff_seconds,
                                     sleep=sleep)
        self.model = model

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        titles, digests, errors, attempts = [], [], [], []
        for text in batch["text"]:
            prompt = assemble_prompt([(text or "")[:300]])
            raw, err, n_att = self.client.generate_with_retry(
                self.model, prompt)
            attempts.append(n_att)
            if raw is None:
                titles.append(None)
                digests.append(None)
                errors.append(err)
                continue
            obj, err = repair_json(raw)
            if obj is None:
                titles.append(None)
                digests.append(None)
                errors.append(err)
            else:
                titles.append(obj.get("title"))
                digests.append(obj.get("digest"))
                errors.append(None)
        out = batch.copy()
        out["enriched_title"] = pd.Series(titles, dtype="object").values
        out["enrichment_digest"] = pd.Series(digests, dtype="object").values
        out["enrich_error"] = pd.Series(errors, dtype="object").values
        out["enrich_attempts"] = pd.Series(attempts, dtype="int64").values
        return out


def enrich(ds, backend: str = "fake", model: str = "fake-model",
           concurrency: int | tuple = (1, 2), batch_size: int = 256,
           max_attempts: int = 3, backoff_seconds: float = 1.0,
           num_gpus: float | None = None, num_cpus: float | None = None,
           client_factory=None):
    """Actor-pool enrichment over the extracted stream.

    GPU-shaped pool spec (SURVEY §2.3 T5, reference
    ``model_setup.py:19-71`` — real VLM weights on device): pass
    ``num_gpus=1`` (or a fraction for MPS-style packing) and Ray
    schedules each pool actor onto a GPU; weights load once per actor
    in ``__init__`` and every batch amortizes them.  ``batch_size``
    is the GPU batch — size it to the model's memory, not the CPU
    default (large binary/image payloads need small batches).  The
    sandbox has no GPU, so the spec is exercised in tests with a
    CPU stand-in model via ``client_factory`` and ``num_gpus=0``.
    The default pool autoscales between one and two actors, so an
    input of one block starts one actor and one client.
    """
    remote_args = {}
    if num_gpus is not None:
        remote_args["num_gpus"] = num_gpus
    if num_cpus is not None:
        remote_args["num_cpus"] = num_cpus
    return ds.map_batches(
        EnrichStage,
        fn_constructor_kwargs={"backend": backend, "model": model,
                               "max_attempts": max_attempts,
                               "backoff_seconds": backoff_seconds,
                               "client_factory": client_factory},
        concurrency=concurrency,
        batch_size=batch_size,
        batch_format="pandas",
        **remote_args,
    )
