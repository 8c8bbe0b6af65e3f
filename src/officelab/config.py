"""World configuration document: schema, validation, round-trip serialization.

One JSON document holds the whole scenario. Required top-level keys:
floor_plan, agents, ticks_per_day, days, rng_seed. Optional keys carry
pipeline settings: fluctuation_rate, sensors, contact_rule, analytics.
The dataclasses are the schema: an optional key left out takes its field's
default, and dump_config walks their fields. Ticks are abstract; configs
may note a suggested mapping (1 tick ~ 5 s) but nothing depends on it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from numbers import Integral
from pathlib import Path
from typing import Any

from .contacts import ContactRule
from .errors import ParseError, ValidationError
from .sensors import SENSOR_KINDS, SensorSpec, false_positive_share
from .world import LOCATION_TAGS, AgentProfile, FloorPlan, ScheduleEvent, StayProbs

DEST_SUM_TOL = 1e-9


@dataclass(frozen=True)
class AnalyticsSettings:
    baseline_alpha: float = 1.0
    day_alpha: float = 0.0
    min_support: int = 3
    min_len: int = 2
    max_len: int = 5


@dataclass(frozen=True)
class WorldConfig:
    floor_plan: FloorPlan
    agents: tuple[AgentProfile, ...]
    ticks_per_day: int
    days: int
    rng_seed: int
    fluctuation_rate: float = 0.05
    sensors: tuple[SensorSpec, ...] = ()
    contact_rule: ContactRule = field(default_factory=ContactRule)
    analytics: AnalyticsSettings = field(default_factory=AnalyticsSettings)


def _prob(value: Any, what: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0.0 <= value <= 1.0:
        raise ValidationError(f"{what} must be a probability in [0,1], got {value!r}")
    return float(value)


def _integer(value: Any, key: str) -> int:
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _count(value: Any, key: str, minimum: int) -> int:
    if not isinstance(value, Integral) or isinstance(value, bool) or value < minimum:
        raise ValidationError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _flag(value: Any, key: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{key} must be true or false, got {value!r}")
    return value


def _strings(value: Any, key: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValidationError(f"{key} must be a list of strings, got {value!r}")
    return value


def _text(value: Any, key: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{key} must be a string, got {value!r}")
    return value


def _alpha(value: Any, key: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0.0 <= value <= sys.float_info.max:
        raise ValidationError(f"{key} must be a finite number >= 0, got {value!r}")
    return float(value)


def _section(value: Any, key: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{key} must be a JSON object, got {value!r}")
    return value


def _int_keyed(mapping: Any, what: str) -> dict[int, Any]:
    """``mapping`` with integer keys. Each key must be an integer in its decimal form ("1", not "01", "+1", " 1" or
    "1_0"), so that no two keys name one integer."""
    out = {}
    for k, v in _section(mapping, what).items():
        try:
            key = int(k)
        except (TypeError, ValueError):
            key = None
        if key is None or str(key) != k:
            raise ValidationError(f"{what} has key {k!r}, which is not an integer in decimal form")
        out[key] = v
    return out


def _parse_floor_plan(doc: Any) -> FloorPlan:
    locations = _section(doc, "floor_plan").get("locations")
    if not isinstance(locations, list) or not locations:
        raise ValidationError("floor_plan.locations must be a nonempty list")
    locs = sorted(_integer(x, "floor_plan.locations entry") for x in locations)
    if locs != list(range(len(locs))):
        raise ValidationError(f"locations must be dense integer ids 0..{len(locs) - 1}")
    known = set(locs)

    edges = set()
    for pair in doc.get("adjacency", []):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValidationError(f"floor_plan.adjacency entry must be a pair of locations, got {pair!r}")
        u, v = (_integer(x, "floor_plan.adjacency entry") for x in pair)
        if u == v:
            raise ValidationError(f"adjacency contains self-edge at location {u}")
        if u not in known or v not in known:
            raise ValidationError(f"adjacency references unknown location {u if u not in known else v}")
        edges.add((min(u, v), max(u, v)))

    tags = {}
    for loc, tag in _int_keyed(doc.get("tags", {}), "floor_plan.tags").items():
        if loc not in known:
            raise ValidationError(f"tags references unknown location {loc}")
        if tag not in LOCATION_TAGS:
            raise ValidationError(f"unknown tag {tag!r} at location {loc}")
        tags[loc] = tag

    home_of = {}
    for loc, owners in _int_keyed(doc.get("home_of", {}), "floor_plan.home_of").items():
        if loc not in known:
            raise ValidationError(f"home_of references unknown location {loc}")
        owner_ids = owners if isinstance(owners, list) else [owners]
        home_of[loc] = tuple(_integer(a, f"floor_plan.home_of[{loc}] owner") for a in owner_ids)

    plan = FloorPlan(tuple(locs), frozenset(edges), tags, home_of)
    hops = plan.distances[0].tolist()  # -1 marks a location unreachable from 0
    if -1 in hops:
        raise ValidationError(f"floor plan is not connected (location {hops.index(-1)} unreachable)")
    return plan


def _parse_agent(doc: dict, plan: FloorPlan, ticks_per_day: int, n_days: int) -> AgentProfile:
    agent_id = _integer(doc["id"], "agent id")
    if not -(2**63) <= agent_id < 2**63:  # the event and path tables hold agent ids as int64
        raise ValidationError(f"agent id {agent_id} is outside the 64-bit range -2**63..2**63-1")
    home = _integer(doc["home"], f"home of agent {agent_id}")
    if home not in plan.neighbors:
        raise ValidationError(f"home {home} of agent {agent_id} is not a known location")

    sp = doc.get("stay_prob", {})
    if isinstance(sp, (int, float)):
        sp = {"default": sp}
    elif not isinstance(sp, dict):
        raise ValidationError(f"stay_prob of agent {agent_id} must be a number or a JSON object, got {sp!r}")
    by_tag = {}
    for tag, p in _section(sp.get("by_tag", {}), f"stay_prob.by_tag of agent {agent_id}").items():
        if tag not in LOCATION_TAGS:
            raise ValidationError(f"stay_prob of agent {agent_id} names unknown tag {tag!r}")
        by_tag[tag] = _prob(p, f"stay_prob.by_tag[{tag}] of agent {agent_id}")
    by_location = {}
    for loc, p in _int_keyed(sp.get("by_location", {}), f"stay_prob.by_location of agent {agent_id}").items():
        if loc not in plan.neighbors:
            raise ValidationError(f"stay_prob of agent {agent_id} references unknown location {loc}")
        by_location[loc] = _prob(p, f"stay_prob.by_location[{loc}] of agent {agent_id}")
    stay = StayProbs(
        default=_prob(sp.get("default", StayProbs.default), f"stay_prob.default of agent {agent_id}"),
        by_tag=by_tag,
        by_location=by_location,
    )

    destinations = {}
    for loc, p in _int_keyed(doc.get("destinations", {}), f"destinations of agent {agent_id}").items():
        if loc not in plan.neighbors:
            raise ValidationError(f"destinations of agent {agent_id} reference unknown location {loc}")
        destinations[loc] = _prob(p, f"destinations[{loc}] of agent {agent_id}")
    if not destinations:
        raise ValidationError(f"agent {agent_id} has no destination distribution")
    total = sum(destinations.values())
    if abs(total - 1.0) > DEST_SUM_TOL:
        raise ValidationError(f"destinations of agent {agent_id} sum to {total:g}")

    schedule = []
    for ev in doc.get("schedule", []):
        window = tuple(_integer(t, f"schedule window bound of agent {agent_id}") for t in ev["window"])
        if len(window) != 2 or window[0] >= window[1]:
            raise ValidationError(f"schedule window {window} of agent {agent_id} must satisfy start < end")
        if window[0] < 0:
            raise ValidationError(f"schedule window {window} of agent {agent_id} has negative start")
        if window[0] >= ticks_per_day:
            raise ValidationError(
                f"schedule window {window} of agent {agent_id} starts outside the day's ticks 0..{ticks_per_day - 1}"
            )
        target = _integer(ev["target"], f"schedule target of agent {agent_id}")
        if target not in plan.neighbors:
            raise ValidationError(f"schedule of agent {agent_id} targets unknown location {target}")
        days = ev.get("days")
        if days is not None:
            days = tuple(_integer(d, f"schedule days entry of agent {agent_id}") for d in days)
            for day in days:
                if not 0 <= day < n_days:
                    raise ValidationError(f"schedule days entry {day} of agent {agent_id} is outside 0..{n_days - 1}")
        schedule.append(
            ScheduleEvent(
                window=window,
                target=target,
                probability=_prob(ev.get("probability", 1.0), f"schedule probability of agent {agent_id}"),
                label=_text(ev.get("label", ScheduleEvent.label), f"schedule label of agent {agent_id}"),
                days=days,
            )
        )

    profile = AgentProfile(
        id=agent_id,
        home=home,
        stay_prob=stay,
        destinations=destinations,
        delta_p=_prob(doc.get("delta_p", AgentProfile.delta_p), f"delta_p of agent {agent_id}"),
        schedule=tuple(schedule),
        department=_text(doc.get("department", AgentProfile.department), f"department of agent {agent_id}"),
    )
    if profile.stay_at(home, plan) < stay.default:
        raise ValidationError(
            f"stay_prob at home of agent {agent_id} ({profile.stay_at(home, plan):g}) "
            f"is below the default ({stay.default:g})"
        )
    return profile


def _parse_sensor(doc: dict, plan: FloorPlan) -> SensorSpec:
    sensor_id = _text(doc["id"], "sensor id")
    kind = doc.get("kind", "camera")
    if kind not in SENSOR_KINDS:
        raise ValidationError(f"sensor {sensor_id} has unknown kind {kind!r}")
    coverage = doc.get("coverage", [])
    if not isinstance(coverage, list):
        raise ValidationError(f"coverage of sensor {sensor_id} must be a list, got {coverage!r}")
    coverage = sorted(_integer(x, f"coverage entry of sensor {sensor_id}") for x in coverage)
    if not coverage:
        raise ValidationError(f"sensor {sensor_id} has empty coverage")
    for loc in coverage:
        if loc not in plan.neighbors:
            raise ValidationError(f"sensor {sensor_id} covers unknown location {loc}")
    for loc, following in zip(coverage, coverage[1:]):  # sorted, so a repeat sits next to itself
        if loc == following:
            raise ValidationError(f"sensor {sensor_id} covers location {loc} more than once")
    return SensorSpec(
        id=sensor_id,
        kind=kind,
        coverage=tuple(coverage),
        p_detect=_prob(doc.get("p_detect", SensorSpec.p_detect), f"p_detect of sensor {sensor_id}"),
        p_false_positive=_prob(
            doc.get("p_false_positive", SensorSpec.p_false_positive), f"p_false_positive of sensor {sensor_id}"
        ),
        p_confuse=_prob(doc.get("p_confuse", SensorSpec.p_confuse), f"p_confuse of sensor {sensor_id}"),
    )


def parse_config(doc: dict) -> WorldConfig:
    """Validate a config tree; raise ValidationError naming the first violation."""
    try:
        return _parse_document(doc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ValidationError(f"config is structurally invalid: {exc!r}") from exc


def _parse_document(doc: dict) -> WorldConfig:
    if not isinstance(doc, dict):
        raise ValidationError("config document must be a JSON object")
    for key in ("floor_plan", "agents", "ticks_per_day", "days", "rng_seed"):
        if key not in doc:
            raise ValidationError(f"config is missing required key {key!r}")

    plan = _parse_floor_plan(doc["floor_plan"])
    ticks_per_day = _count(doc["ticks_per_day"], "ticks_per_day", 1)
    days = _count(doc["days"], "days", 1)

    agents = tuple(_parse_agent(a, plan, ticks_per_day, days) for a in doc["agents"])
    ids = [a.id for a in agents]
    if len(set(ids)) != len(ids):
        dup = next(i for i in ids if ids.count(i) > 1)
        raise ValidationError(f"duplicate agent id {dup}")

    by_id = {a.id: a for a in agents}
    owned: dict[int, int] = {}
    for loc, owners in plan.home_of.items():
        for owner in owners:
            if owner not in by_id:
                raise ValidationError(f"home_of[{loc}] names unknown agent {owner}")
            if owner in owned:
                raise ValidationError(f"agent {owner} owns more than one home location")
            owned[owner] = loc
            if by_id[owner].home != loc:
                raise ValidationError(
                    f"home_of[{loc}] names agent {owner} whose home is {by_id[owner].home}"
                )

    sensors = tuple(_parse_sensor(s, plan) for s in doc.get("sensors", []))
    sensor_ids = [s.id for s in sensors]
    if len(set(sensor_ids)) != len(sensor_ids):
        dup = next(s for s in sensor_ids if sensor_ids.count(s) > 1)
        raise ValidationError(f"duplicate sensor id {dup!r}")
    for s in sensors:  # the tracker's clutter model needs q < 1
        false_positive_share(s, len(agents))

    rule_doc = _section(doc.get("contact_rule", {}), "contact_rule")
    tags = _strings(rule_doc.get("excluded_tags", sorted(ContactRule.excluded_tags)), "contact_rule.excluded_tags")
    min_ticks = rule_doc.get("min_consecutive_ticks", ContactRule.min_consecutive_ticks)
    exclusion = rule_doc.get("officemate_exclusion", ContactRule.officemate_exclusion)
    rule = ContactRule(
        min_consecutive_ticks=_count(min_ticks, "contact_rule.min_consecutive_ticks", 1),
        excluded_tags=frozenset(tags),
        officemate_exclusion=_flag(exclusion, "contact_rule.officemate_exclusion"),
    )
    for tag in rule.excluded_tags:
        if tag not in LOCATION_TAGS:
            raise ValidationError(f"contact_rule excludes unknown tag {tag!r}")

    if doc.get("motion_model", "simulator") != "simulator":  # the tracker's only prior
        raise ValidationError(f"unknown motion_model {doc['motion_model']!r}")

    an = _section(doc.get("analytics", {}), "analytics")
    analytics = AnalyticsSettings(
        baseline_alpha=_alpha(an.get("baseline_alpha", AnalyticsSettings.baseline_alpha), "analytics.baseline_alpha"),
        day_alpha=_alpha(an.get("day_alpha", AnalyticsSettings.day_alpha), "analytics.day_alpha"),
        min_support=_count(an.get("min_support", AnalyticsSettings.min_support), "analytics.min_support", 1),
        min_len=_count(an.get("min_len", AnalyticsSettings.min_len), "analytics.min_len", 2),
        max_len=_count(an.get("max_len", AnalyticsSettings.max_len), "analytics.max_len", 2),
    )
    if not analytics.min_len <= analytics.max_len:
        raise ValidationError("analytics pattern lengths must satisfy 2 <= min_len <= max_len")

    return WorldConfig(
        floor_plan=plan,
        agents=agents,
        ticks_per_day=ticks_per_day,
        days=days,
        rng_seed=_count(doc["rng_seed"], "rng_seed", 0),
        fluctuation_rate=_prob(doc.get("fluctuation_rate", WorldConfig.fluctuation_rate), "fluctuation_rate"),
        sensors=sensors,
        contact_rule=rule,
        analytics=analytics,
    )


def with_seed(config: WorldConfig, seed: int) -> WorldConfig:
    """``config`` with its rng_seed replaced, checked as parse_config checks it."""
    return replace(config, rng_seed=_count(seed, "rng_seed", 0))


def load_config(path: str | Path) -> WorldConfig:
    """Load and validate a config file. ParseError on a file that is not UTF-8 JSON."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"malformed config {path}: {exc}") from exc
    return parse_config(doc)


def dump_config(config: WorldConfig) -> dict:
    """Config tree that parse_config maps back to an equal WorldConfig, derived from the dataclass fields."""
    return _tree(config)


def _tree(value: Any) -> Any:
    """``value`` as a JSON tree: a dataclass becomes the object of its fields, a dict an object sorted by key (each
    key a string), a frozenset a sorted list and a tuple a list in its own order."""
    if is_dataclass(value):
        return {f.name: _tree(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): _tree(v) for k, v in sorted(value.items())}
    if isinstance(value, frozenset):
        return [_tree(v) for v in sorted(value)]
    if isinstance(value, tuple):
        return [_tree(v) for v in value]
    return value
