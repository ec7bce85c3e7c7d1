"""Deterministic smart-car safety stack: crash/panic/alcohol alerting
over simulated GPS (NMEA 0183) and GSM (AT command SMS) links, plus the
rain-sensing wiper and the SMS remote-query loop.
"""
