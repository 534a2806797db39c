#include "src/serve/serve_loop.h"

#include <utility>
#include <vector>

#include "src/obs/obs_plane.h"
#include "src/serve/request_cursor.h"
#include "src/serve/serve_session.h"
#include "src/sim/event_loop.h"
#include "src/util/check.h"

namespace flo {

ServeLoop::ServeLoop(OverlapEngine* engine, ServeConfig config)
    : engine_(engine), config_(config) {
  FLO_CHECK(engine_ != nullptr);
}

ServeReport ServeLoop::Run(std::vector<ServeRequest> requests) {
  // VectorCursor stable-sorts by arrival, so the streamed admission order
  // matches the historical materialize-everything loop exactly.
  VectorCursor cursor(std::move(requests));
  return Run(&cursor);
}

ServeReport ServeLoop::Run(RequestCursor* cursor) {
  FLO_CHECK(cursor != nullptr);
  // One session over a private event loop: the single-replica special
  // case of the state machine (src/cluster drives many sessions on one
  // shared loop).
  EventLoop events;
  ObsPlane* obs = config_.obs;
  const bool observing = obs != nullptr && obs->enabled();
  if (observing) {
    obs->BeginRun();
    obs->AddPoller([obs, engine = engine_](MetricsRegistry& registry) {
      engine->ExportMetrics(&registry);
      registry.Set(obs->ids().replicas_accepting, 1.0);
    });
    obs->AttachLoop(&events);
  }
  ServeSession session(engine_, config_, &events);
  ArrivalPump pump(cursor, &events,
                   [&session](ServeRequest&& request, SimTime now) {
                     session.Admit(std::move(request), now);
                   });
  events.RunToCompletion();
  ServeReport report = std::move(session.report());
  report.events = events.dispatched();
  if (observing) {
    obs->FinishRun(report.makespan_us);
  }
  return report;
}

}  // namespace flo
