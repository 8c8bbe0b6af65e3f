"""Synthetic scenario builders.

Every probability here is synthetic: no real building layout, schedule, or
sensor calibration is public for this kind of deployment, so these configs
are plausibility-tuned by hand. full_scale is the big one (50 location
bins, a 30-camera + 90-tag-reader network, 10 tracked people); the others
are small and fast.
"""

from __future__ import annotations


def demo_config(seed: int = 42) -> dict:
    """Small 5-day office: 3 agents, 8 locations, one anomalous day.

    Agents 1 and 2 share an office; agent 0 abandons its routine on the last
    day for a long session in the far meeting room.
    """
    daily_meeting = {"window": [40, 70], "target": 2, "probability": 0.9, "label": "standup"}
    lunch = {"window": [80, 100], "target": 4, "probability": 0.8, "label": "lunch"}
    return {
        "floor_plan": {
            "locations": list(range(8)),
            "adjacency": [[0, 5], [1, 5], [2, 6], [3, 6], [4, 6], [5, 6], [6, 7], [5, 7]],
            "tags": {
                "0": "office",
                "1": "office",
                "2": "meeting_room",
                "3": "printer",
                "4": "lunch_area",
                "5": "corridor",
                "6": "corridor",
                "7": "meeting_room",
            },
            "home_of": {"0": [0], "1": [1, 2]},
        },
        "agents": [
            {
                "id": 0,
                "home": 0,
                "department": "Research",
                "stay_prob": {"default": 0.3, "by_tag": {"office": 0.9, "meeting_room": 0.85, "corridor": 0.1}},
                "destinations": {"0": 0.6, "2": 0.15, "3": 0.1, "4": 0.15},
                "delta_p": 0.05,
                "schedule": [
                    dict(daily_meeting, days=[0, 1, 2, 3]),
                    lunch,
                    {"window": [20, 100], "target": 7, "probability": 1.0, "label": "offsite review", "days": [4]},
                ],
            },
            {
                "id": 1,
                "home": 1,
                "department": "Development",
                # shared office: keep stay + delta_p well below 1 or the
                # officemates freeze each other in place
                "stay_prob": {"default": 0.3, "by_tag": {"office": 0.85, "meeting_room": 0.85, "corridor": 0.1}},
                "destinations": {"1": 0.55, "0": 0.1, "2": 0.15, "3": 0.1, "4": 0.1},
                "delta_p": 0.05,
                "schedule": [daily_meeting, lunch],
            },
            {
                "id": 2,
                "home": 1,
                "department": "Workshops",
                "stay_prob": {"default": 0.3, "by_tag": {"office": 0.85, "meeting_room": 0.85, "corridor": 0.1}},
                "destinations": {"1": 0.6, "2": 0.15, "4": 0.15, "3": 0.1},
                "delta_p": 0.05,
                "schedule": [daily_meeting, lunch],
            },
        ],
        "ticks_per_day": 120,
        "days": 5,
        "rng_seed": seed,
        "fluctuation_rate": 0.05,
        "sensors": [
            {"id": "cam0", "kind": "camera", "coverage": [0, 1, 5]},
            {"id": "cam1", "kind": "camera", "coverage": [2, 6, 7]},
            {"id": "cam2", "kind": "camera", "coverage": [3, 4, 6]},
            {"id": "tag0", "kind": "tag_reader", "coverage": [0]},
            {"id": "tag1", "kind": "tag_reader", "coverage": [1]},
            {"id": "tag2", "kind": "tag_reader", "coverage": [2]},
            {"id": "tag3", "kind": "tag_reader", "coverage": [7]},
            {"id": "bio0", "kind": "biometric", "coverage": [5], "p_detect": 0.98, "p_false_positive": 0.001, "p_confuse": 0.0},
        ],
        "contact_rule": {"min_consecutive_ticks": 10, "excluded_tags": ["printer"], "officemate_exclusion": True},
        "analytics": {"min_support": 2, "min_len": 2, "max_len": 4},
    }


def full_scale_config(
    seed: int = 7,
    p_detect: float = 0.9,
    days: int = 1,
    ticks_per_day: int = 300,
    n_agents: int = 10,
) -> dict:
    """Full-scale floor: 50 location bins, 30 cameras + 90 tag readers.

    Locations 0..19 are offices (agents own the first ten), 20..23 meeting
    rooms, 24..25 printers, 26 the lunch area, 27..49 a corridor spine every
    room hangs off. The schedule windows are set for a 300-tick day and
    scaled to ``ticks_per_day``, each kept at least one tick long.
    """
    offices = list(range(20))
    meeting_rooms = [20, 21, 22, 23]
    printers = [24, 25]
    lunch = 26
    corridors = list(range(27, 50))

    tags = {str(x): "office" for x in offices}
    tags.update({str(x): "meeting_room" for x in meeting_rooms})
    tags.update({str(x): "printer" for x in printers})
    tags[str(lunch)] = "lunch_area"
    tags.update({str(x): "corridor" for x in corridors})

    adjacency = [[corridors[i], corridors[i + 1]] for i in range(len(corridors) - 1)]
    rooms = offices + meeting_rooms + printers + [lunch]
    for i, room in enumerate(rooms):
        adjacency.append(sorted([room, corridors[i % len(corridors)]]))

    def window(start: int, end: int) -> list[int]:
        start = start * ticks_per_day // 300
        return [start, max(end * ticks_per_day // 300, start + 1)]

    agents = []
    for a in range(n_agents):
        friends = [(a + 1) % n_agents, (a + 3) % n_agents]
        destinations = {str(a): 0.55, str(meeting_rooms[a % 4]): 0.08, str(lunch): 0.07, str(printers[a % 2]): 0.06}
        for f in friends:
            destinations[str(f)] = destinations.get(str(f), 0.0) + 0.1
        destinations[str(corridors[(7 * a) % len(corridors)])] = round(1.0 - sum(destinations.values()), 12)
        agents.append(
            {
                "id": a,
                "home": a,
                "department": ["Research", "Development", "Workshops", "other"][a % 4],
                "stay_prob": {
                    "default": 0.3,
                    "by_tag": {"office": 0.88, "meeting_room": 0.85, "lunch_area": 0.8, "corridor": 0.05},
                },
                "destinations": destinations,
                "delta_p": 0.02,
                "schedule": [
                    {"window": window(60, 110), "target": meeting_rooms[a % 4], "probability": 0.9, "label": "meeting"},
                    {"window": window(150, 190), "target": lunch, "probability": 0.8, "label": "lunch"},
                ],
            }
        )

    sensors = []
    for c in range(30):
        anchor = corridors[(3 * c) % len(corridors)]
        patch = sorted({anchor, rooms[(2 * c) % len(rooms)], rooms[(2 * c + 1) % len(rooms)]})
        sensors.append(
            {
                "id": f"cam{c:02d}",
                "kind": "camera",
                "coverage": patch,
                "p_detect": p_detect,
                "p_false_positive": 0.01,
                "p_confuse": 0.05,
            }
        )
    for t in range(90):
        loc = t % 50
        sensors.append(
            {
                "id": f"tag{t:02d}",
                "kind": "tag_reader",
                "coverage": [loc],
                "p_detect": p_detect,
                "p_false_positive": 0.005,
                "p_confuse": 0.02,
            }
        )

    return {
        "floor_plan": {
            "locations": list(range(50)),
            "adjacency": sorted(adjacency),
            "tags": tags,
            "home_of": {str(a): [a] for a in range(n_agents)},
        },
        "agents": agents,
        "ticks_per_day": ticks_per_day,
        "days": days,
        "rng_seed": seed,
        "fluctuation_rate": 0.05,
        "sensors": sensors,
        "contact_rule": {"min_consecutive_ticks": 10, "excluded_tags": ["printer"], "officemate_exclusion": True},
    }


def surprise_week_config(seed: int) -> dict:
    """One agent, five days; day 4 swaps the routine for a far meeting room.

    Days 0-3: morning meeting in room 2, lunch, desk time. Day 4: a long
    block in room 7 across the floor, so occupancy shifts hard away from the
    baseline.
    """
    doc = demo_config(seed)
    doc["agents"] = [doc["agents"][0]]
    doc["floor_plan"]["home_of"] = {"0": [0]}
    doc["ticks_per_day"] = 240
    agent = doc["agents"][0]
    agent["schedule"] = [
        {"window": [60, 100], "target": 2, "probability": 0.95, "label": "standup", "days": [0, 1, 2, 3]},
        {"window": [140, 170], "target": 4, "probability": 0.9, "label": "lunch", "days": [0, 1, 2, 3]},
        {"window": [20, 220], "target": 7, "probability": 1.0, "label": "workshop", "days": [4]},
    ]
    return doc
