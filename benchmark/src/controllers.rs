//! The four `RateController` implementations built from one parameter
//! set, as the simulator's scenarios build them. Callers are generic over
//! the controller type, so they hand [`with_controller`] a [`Drive`]
//! rather than a closure (a closure cannot be generic).

use laqa_rap::{
    BbrConfig, BbrSender, NadaConfig, NadaSender, RapConfig, RapSender, RateController,
    WindowConfig, WindowSender,
};
use laqa_sim::Transport;

/// What every controller is configured from.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub packet_size: f64,
    pub initial_rate: f64,
    pub initial_rtt: f64,
    pub max_rate: f64,
}

/// Work to do with a freshly built controller of whichever type.
pub trait Drive {
    type Out;
    fn drive<C: RateController>(self, ctl: C) -> Self::Out;
}

/// Build `transport`'s controller with its clock at zero and run `work`
/// on it.
pub fn with_controller<D: Drive>(transport: Transport, p: Params, work: D) -> D::Out {
    let Params {
        packet_size,
        initial_rate,
        initial_rtt,
        max_rate,
    } = p;
    match transport {
        Transport::Rap => work.drive(RapSender::new(
            RapConfig {
                packet_size,
                initial_rate,
                initial_rtt,
                max_rate,
                ..RapConfig::default()
            },
            0.0,
        )),
        Transport::Bbr => work.drive(BbrSender::new(
            BbrConfig {
                packet_size,
                initial_rate,
                initial_rtt,
                max_rate,
                ..BbrConfig::default()
            },
            0.0,
        )),
        Transport::Nada => work.drive(NadaSender::new(
            NadaConfig {
                packet_size,
                initial_rate,
                initial_rtt,
                max_rate,
                ..NadaConfig::default()
            },
            0.0,
        )),
        Transport::Tcp => work.drive(WindowSender::new(
            WindowConfig {
                packet_size,
                initial_rtt,
                // The rate cap as a window at a queueing-inclusive RTT of
                // 0.5 s, floored so the window stays usable.
                max_cwnd: (max_rate * 0.5 / packet_size).max(8.0),
                ..WindowConfig::default()
            },
            0.0,
        )),
    }
}
