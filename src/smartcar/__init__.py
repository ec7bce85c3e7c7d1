"""Deterministic smart-car safety stack: crash/panic/alcohol alerting
over simulated GPS (NMEA 0183) and GSM (AT command SMS) links, plus the
rain-sensing wiper and the SMS remote-query loop.
"""

from .config import Config, load_config, load_config_file
from .controller import SafetyController, WiperCommand, WiperMode
from .types import (
    AlertKind,
    AlertMessage,
    ConfigError,
    GeoFix,
    InboundSms,
    ScenarioError,
    SensorFrame,
)

__version__ = "0.1.0"

__all__ = [
    "Config",
    "load_config",
    "load_config_file",
    "SafetyController",
    "WiperCommand",
    "WiperMode",
    "AlertKind",
    "AlertMessage",
    "ConfigError",
    "GeoFix",
    "InboundSms",
    "ScenarioError",
    "SensorFrame",
    "__version__",
]
