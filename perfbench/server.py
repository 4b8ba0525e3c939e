"""Ranking server: one process that answers rank_top_k requests in order.

Usage: python server.py CHECKPOINT CANDIDATES [SPANS_OUT]

On start it imports hbayes, loads the checkpoint and the candidate pool,
and prints one JSON line with its load timings.  It then reads one JSON
request per line from stdin, ``{"user": str, "items": [pool index, ...],
"k": int}``, and answers each with ``{"ranking": [[item, prob], ...]}``,
or ``{"error": str}`` when hbayes rejects the request.  The pool index is
the item id, so ties are broken by it.  It exits at end of input, after
writing its spans to SPANS_OUT when one is given.
"""

import json
import sys
import time

sys.dont_write_bytecode = True


def main(argv):
    t0 = time.perf_counter()
    import hbayes
    from hbayes import io, predictor
    t1 = time.perf_counter()

    tracer = None
    if len(argv) > 2:
        from tracing import Tracer

        tracer = Tracer()
        tracer.record("hbayes.import", t0, t1)
        tracer.install()

    ckpt = io.load_checkpoint(argv[0])
    t2 = time.perf_counter()
    pool = io.load_candidates(argv[1])
    t3 = time.perf_counter()

    user_index = {u: i for i, u in enumerate(ckpt.user_ids or [])}
    brand_index = {b: i for i, b in enumerate(ckpt.brand_ids or [])}
    items = [(item, x, brand_index.get(brand)) for item, x, brand, _ in pool]

    out = sys.stdout.buffer
    ready = {"ready": True, "hbayes_file": hbayes.__file__, "import_s": t1 - t0,
             "load_checkpoint_s": t2 - t1, "load_candidates_s": t3 - t2}
    out.write(json.dumps(ready).encode() + b"\n")
    out.flush()

    for line in sys.stdin.buffer:
        req = json.loads(line)
        try:
            top = predictor.rank_top_k(user_index.get(req["user"]),
                                       [items[i] for i in req["items"]],
                                       ckpt.state, req["k"])
            resp = {"ranking": [[int(item), float(p)] for item, p in top]}
        except (ValueError, ArithmeticError, LookupError, RuntimeError) as err:
            resp = {"error": f"{type(err).__name__}: {err}"}
        out.write(json.dumps(resp).encode() + b"\n")
        out.flush()

    if tracer is not None:
        tracer.dump(argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
