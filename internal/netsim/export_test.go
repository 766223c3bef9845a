package netsim

// ArmEachSend makes every later send an engine event of its own, posted from
// SendAt: the out-of-order path of postSend, which is what every send was
// before hosts had queues. FuzzSendSchedule runs each program both ways.
func (n *Network) ArmEachSend() { n.armEach = true }
