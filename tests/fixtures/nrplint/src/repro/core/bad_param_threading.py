"""NRP011 fixture: the answer_batch fallthrough bug from PR 8, replayed."""


class MiniEngine:
    def answer(self, s, t, alpha, deadline_s=None):
        return (s, t, alpha, deadline_s)

    def answer_batch(self, queries, deadline_s=None):
        out = []
        for s, t, alpha in queries:
            out.append(self.answer(s, t, alpha))  # BAD: drops deadline_s
        return out

    def answer_batch_first(self, queries, deadline_s=None):
        s, t, alpha = queries[0]
        return self.answer(s, t, alpha)  # BAD: drops deadline_s

    def answer_batch_ok(self, queries, deadline_s=None):
        return [
            self.answer(s, t, alpha, deadline_s=deadline_s)
            for s, t, alpha in queries
        ]


def execute(plan, deadline_s=None):
    return (plan, deadline_s)


def run_plan(plan, deadline_s=None):
    return execute(plan)  # BAD: drops deadline_s


def run_plan_ok(plan, deadline_s=None):
    return execute(plan, deadline_s=deadline_s)  # OK


def run_plan_positional_ok(plan, deadline_s=None):
    return execute(plan, deadline_s)  # OK: covered positionally


def run_plan_without_backend(plan, backend=None):
    return execute(plan)  # OK: backend is no longer a threaded parameter
