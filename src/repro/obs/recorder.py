"""The one observability switch shared by every collector.

Spans (:mod:`repro.obs.trace`), metrics (:mod:`repro.obs.metrics`),
events (:mod:`repro.obs.events`) and plan records
(:mod:`repro.obs.planquality`) record exactly when :data:`ON` is true,
so the layer has two states — recording or not — instead of one per
collector.  Flip it only through :func:`repro.obs.enable`,
:func:`repro.obs.disable` or :func:`repro.obs.recording`.

Instrumentation guards read ``obs_recorder.ON`` directly: one module
attribute load, so a disabled hook stays as cheap as a flag check can be.
"""

ON = False
