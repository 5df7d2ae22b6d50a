package fleet

var ForDevice = forDevice
