"""REP005 fixture: hot-path telemetry through instrumented(), and around it."""


def apply_traced(tracer, batch):
    with tracer.span("updates.apply"):
        return batch.run()


def apply_logged(oplog, batch):
    with oplog.op("updates.apply"):
        return batch.run()


def apply_instrumented(batch):
    with instrumented("updates.apply") as scope:
        result = batch.run()
        scope.set(nodes=result)
    return result


def refuse(oplog, batch):
    oplog.record("updates.refusal", outcome="error", nodes=batch.size)
